package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// referenceJSON is the metrics document as encoding/json writes it — the
// export WriteJSON replaced, kept here as the reference its bytes must
// match.
func referenceJSON(r *Registry) ([]byte, error) {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkAgainstReference fails t unless WriteJSON and the reference agree:
// the same bytes, or both refusing the registry with nothing written.
func checkAgainstReference(t *testing.T, r *Registry) {
	t.Helper()
	want, refErr := referenceJSON(r)
	var got bytes.Buffer
	err := r.WriteJSON(&got)
	switch {
	case refErr != nil:
		if err == nil || got.Len() != 0 {
			t.Fatalf("reference fails (%v); WriteJSON returned %v after writing %d bytes", refErr, err, got.Len())
		}
	case err != nil:
		t.Fatalf("WriteJSON: %v; the reference wrote\n%s", err, want)
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("WriteJSON differs from json.MarshalIndent:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// TestWriteJSONMatchesMarshalIndent pins the hand-written export to
// encoding/json's bytes over every kind, the label bytes that need
// escaping and the floats at its format boundaries.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.75, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, -math.Nextafter(1e-6, 0), 1e-7, 1.5e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 123456789e15,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
		1 << 53, 1<<53 + 2, 1 << 60, -(1 << 62), 18446744073709551615,
		1<<53 - 1, -(1<<53 - 1), 1e15, -4096, 1 << 52,
	}
	strs := []string{
		"", "plain", "with space", `quo"te`, `back\slash`, "ctl\x00\x01\x1f", "nl\n\t\r\b\f",
		"<tag>&amp;", "a<b", "c>d", "e&f", "line\u2028sep\u2029", "bad\xff\xfeutf8", "ünïcödé", "日本", "del\x7f", "~!@#$%^*()_+{}|:?",
	}
	cases := map[string]func(r *Registry){
		"empty": func(r *Registry) {},
		"kinds": func(r *Registry) {
			r.Counter("c", L("arch", "rmt")).Add(7)
			r.Counter("c.big").Add(1<<60 + 1)
			g := r.Gauge("g", L("tm", "0"))
			g.Set(12)
			g.Set(-3)
			r.Gauge("g.zero")
			r.Histogram("h.empty", L("role", "ingress"))
			h := r.Histogram("h.filled", L("role", "egress"), L("arch", "adcp"))
			for _, v := range []float64{3, 1e-9, 0, -4.5, 1e25, 17} {
				h.Observe(v)
			}
			r.Set("v", 1.5, L("k", "2"), L("j", "1"))
			r.ObserveFunc("f", func() float64 { return 2.25 }, L("instance", "3"))
		},
		"labels": func(r *Registry) {
			for i, s := range strs {
				n := strconv.Itoa(i)
				r.Set("exp.v"+n, float64(i), L(s, s), L("k", s))
				r.Set(s, float64(i), L("i", n))
				r.Gauge("g", L("v", s)).Set(int64(i))
			}
			// A repeated key: the map keeps the value sorted last.
			r.Set("dup", 1, L("k", "b"), L("k", "a"), L("k", ""), L("j", "x"))
			r.Set("dup", 2, L("k", ""), L("k", ""))
		},
		"floats": func(r *Registry) {
			for i, f := range floats {
				n := strconv.Itoa(i)
				r.Set("v", f, L("i", n))
				r.ObserveFunc("f", func() float64 { return f }, L("i", n))
				h := r.Histogram("h", L("i", n))
				h.Observe(f)
				h.Observe(f / 3)
			}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			build(r)
			checkAgainstReference(t, r)
		})
	}
}

// FuzzWriteJSON drives the export with arbitrary names, label bytes and
// float bits: a document encoding/json can write comes out byte for byte
// the same, and one it refuses (a NaN or an infinity anywhere) fails the
// export with nothing written.
func FuzzWriteJSON(f *testing.F) {
	f.Add("exp.table1.gain", "arch", "adcp", math.Float64bits(1.5), math.Float64bits(-1e-7))
	f.Add("", "", "", uint64(0), math.Float64bits(math.Copysign(0, -1)))
	f.Add("n ", "<&>", "\xff\"\\", math.Float64bits(1e21), math.Float64bits(math.NaN()))
	f.Add("m", "k", "k", math.Float64bits(math.Inf(-1)), math.Float64bits(5e-324))
	f.Fuzz(func(t *testing.T, name, key, value string, a, b uint64) {
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		r := NewRegistry()
		ok := func() (ok bool) {
			// A crafted name can spell another series' key under a
			// different kind; registering it panics, and is no document.
			defer func() { ok = recover() == nil }()
			r.Set(name, fa, L(key, value))
			r.Set(name, fb)
			r.ObserveFunc(name+".f", func() float64 { return fb }, L(key, value), L(key, name))
			h := r.Histogram(name+".h", L(value, key))
			h.Observe(fa)
			h.Observe(fb)
			r.Histogram(name + ".h0")
			g := r.Gauge(name+".g", L(key, value))
			g.Set(int64(a))
			g.Set(int64(b))
			r.Counter(name + ".c").Add(a)
			return true
		}()
		if !ok {
			t.Skip("series key collides across kinds")
		}
		checkAgainstReference(t, r)
	})
}

// TestWriteJSONRejectsNonFinite: a NaN or an infinity fails the export
// before a byte is written, and the error names the series.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for name, c := range map[string]struct {
		build func(r *Registry)
		want  string
	}{
		"value NaN": {func(r *Registry) { r.Set("exp.bad", math.NaN(), L("arch", "rmt")) }, `exp.bad{arch="rmt"}: value is NaN`},
		"func +Inf": {func(r *Registry) { r.ObserveFunc("f.bad", func() float64 { return math.Inf(1) }) }, "f.bad{}: value is +Inf"},
		"histogram -Inf": {func(r *Registry) {
			h := r.Histogram("h.bad", L("role", "egress"), L("pipe", "2"))
			h.Observe(1)
			h.Observe(math.Inf(-1))
		}, `h.bad{pipe="2",role="egress"}: value is -Inf`},
		"histogram mean NaN": {func(r *Registry) {
			h := r.Histogram("h.max", L("pipe", "0"))
			h.Observe(math.Inf(-1))
			h.Observe(math.Inf(1))
		}, `h.max{pipe="0"}: value is NaN`},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("a.fine").Add(1)
			c.build(r)
			r.Set("z.fine", 2)
			if _, err := referenceJSON(r); err == nil {
				t.Fatal("the reference accepts the registry")
			}
			var buf bytes.Buffer
			err := r.WriteJSON(&buf)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want one naming %s", err, c.want)
			}
			if buf.Len() != 0 {
				t.Errorf("a refused export wrote %d bytes", buf.Len())
			}
		})
	}
}

// TestWriteJSONAllocs holds the export to a constant allocation count:
// exporting 2 000 scalar series costs what exporting 10 does, and no more
// than a handful of objects (the reflective encoder took ~8 per series).
func TestWriteJSONAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		r := NewRegistry()
		for i := 0; i < n; i++ {
			r.Set("exp.scalar", float64(i)/7, L("point", strconv.Itoa(i)), L("arch", "adcp"))
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(2000)
	if small != large || large > 8 {
		t.Errorf("WriteJSON allocates %v objects for 10 series and %v for 2000, want the same count, at most 8", small, large)
	}
}

// BenchmarkRegistryWriteJSON exports a registry with the series mix of
// one `adcpsim -exp all -metrics` pass: 2 902 func, 921 histogram, 655
// value and 126 gauge series, labeled like the simulator's.
func BenchmarkRegistryWriteJSON(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 2902; i++ {
		v := float64(i) * 1.25
		r.ObserveFunc("switch.pipeline.traversals", func() float64 { return v },
			L("arch", "adcp"), L("instance", strconv.Itoa(i/12)), L("pipe", strconv.Itoa(i%12)), L("role", "ingress"))
	}
	for i := 0; i < 921; i++ {
		h := r.Histogram("switch.latency_ps", L("arch", "rmt"), L("instance", strconv.Itoa(i)), L("role", "egress"))
		for j := 0; j < 64; j++ {
			h.Observe(float64((i+1)*(j+3)) * 1.7)
		}
	}
	for i := 0; i < 655; i++ {
		r.Set("exp.table.value", float64(i)/3, L("exp", "table1"), L("row", strconv.Itoa(i)))
	}
	for i := 0; i < 126; i++ {
		g := r.Gauge("tm.queue_depth", L("instance", strconv.Itoa(i)), L("tm", "0"))
		g.Set(int64(i * 3))
		g.Set(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
