package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("pkts", L("arch", "rmt"))
	c1.Inc()
	c2 := r.Counter("pkts", L("arch", "rmt"))
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c2.Add(2)
	if c1.Value() != 3 {
		t.Errorf("counter = %d, want 3", c1.Value())
	}
	// Different labels → different series.
	other := r.Counter("pkts", L("arch", "adcp"))
	if other.Value() != 0 {
		t.Error("label variant shares state")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("depth", L("tm", "1"), L("arch", "adcp"))
	b := r.Gauge("depth", L("arch", "adcp"), L("tm", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter series as gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistrySetOverwrites(t *testing.T) {
	r := NewRegistry()
	r.Set("exp.keyrate.speedup", 4, L("width", "4"))
	r.Set("exp.keyrate.speedup", 16, L("width", "4"))
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || snap.Metrics[0].Value != 16 {
		t.Errorf("snapshot = %+v, want single value 16", snap.Metrics)
	}
}

func TestRegistryObserveFunc(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.ObserveFunc("live", func() float64 { n++; return float64(n) })
	if got := r.Snapshot().Metrics[0].Value; got != 1 {
		t.Errorf("first snapshot = %v, want 1", got)
	}
	if got := r.Snapshot().Metrics[0].Value; got != 2 {
		t.Errorf("second snapshot = %v, want 2 (fn not re-evaluated)", got)
	}
}

func TestRegistryGaugePeakExported(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("occ")
	g.Set(-5)
	g.Set(-9)
	snap := r.Snapshot()
	if snap.Metrics[0].Peak == nil || *snap.Metrics[0].Peak != -5 {
		t.Errorf("peak = %v, want -5", snap.Metrics[0].Peak)
	}
	if snap.Metrics[0].Value != -9 {
		t.Errorf("value = %v, want -9", snap.Metrics[0].Value)
	}
}

func TestRegistryHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{4, 1, 3, 2} {
		h.Observe(v)
	}
	s := r.Snapshot().Metrics[0]
	if s.Hist == nil {
		t.Fatal("no histogram summary")
	}
	if s.Hist.Count != 4 || s.Hist.Min != 1 || s.Hist.Max != 4 || s.Hist.Sum != 10 {
		t.Errorf("summary = %+v", s.Hist)
	}
}

// Snapshot ordering and JSON bytes must not depend on registration order —
// the byte-identical-output guarantee of adcpsim -metrics.
func TestRegistryDeterministicJSON(t *testing.T) {
	build := func(reverse bool) []byte {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("b.count", L("arch", "rmt")).Add(7) },
			func() { r.Set("a.value", 1.5, L("k", "2"), L("j", "1")) },
			func() { r.Gauge("c.gauge").Set(3) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Errorf("registration order changed JSON:\n%s\nvs\n%s", a, b)
	}
	// The document must be valid JSON with the expected schema and order.
	var doc Snapshot
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SnapshotSchema {
		t.Errorf("schema = %q", doc.Schema)
	}
	names := []string{}
	for _, m := range doc.Metrics {
		names = append(names, m.Name)
	}
	want := []string{"a.value", "b.count", "c.gauge"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
}

func TestRegistryInstanceLabel(t *testing.T) {
	r := NewRegistry()
	a, b := r.InstanceLabel("instance"), r.InstanceLabel("instance")
	if a.Value != "0" || b.Value != "1" || a.Key != "instance" {
		t.Errorf("instances = %+v, %+v", a, b)
	}
	// The ordinal sequence is registry-wide, not per-key, so values are
	// unique within one registry and Merge can renumber with one offset.
	if c := r.InstanceLabel("net"); c.Value != "2" {
		t.Errorf("second key continued at %s, want 2", c.Value)
	}
}

// referenceKey is how the registry keyed a series before canonicalKey:
// sort.Slice over a copy of the labels, then a strings.Builder. Every
// exported byte depends on the two agreeing, so it stays here as the
// reference.
func referenceKey(name string, labels []Label) (string, []Label) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// TestRegistryKeyMatchesReference draws random label sets of 0–8 labels
// from small pools, so keys repeat, equal keys carry different values and
// whole labels repeat, with empty strings and non-ASCII and non-UTF-8 bytes
// among them. A lookup must key and order them exactly as the reference
// does and leave the caller's slice as it was, and a merge that renumbers
// an instance label must key the renumbered set the same way.
func TestRegistryKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "m", "switch.pipeline.traversals", "exp.ünï"}
	keys := []string{"", "arch", "instance", "pipe", "role", "tm", "ключ", "a\x00b"}
	vals := []string{"", "0", "1", "10", "2", "adcp", "ingress", "é", "\xff\xfe", "\x01"}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	instKeys := map[string]bool{"instance": true}
	for i := 0; i < 20000; i++ {
		name := pick(names)
		labels := make([]Label, rng.Intn(9))
		for j := range labels {
			labels[j] = L(pick(keys), pick(vals))
		}
		in := append([]Label(nil), labels...)
		wantKey, wantLs := referenceKey(name, labels)

		r := NewRegistry()
		m := r.lookup(name, in, KindValue)
		if !slices.Equal(in, labels) {
			t.Fatalf("lookup reordered the caller's labels: %q, was %q", in, labels)
		}
		if r.metrics[wantKey] != m || !slices.Equal(m.labels, wantLs) {
			t.Fatalf("%q %q: keyed %q with labels %q, want %q with %q", name, labels, keyOf(r, m), m.labels, wantKey, wantLs)
		}

		k, ls := mergeKey(wantKey, name, wantLs, instKeys, 7)
		renumbered := append([]Label(nil), wantLs...)
		for j, l := range renumbered {
			if v, err := strconv.Atoi(l.Value); err == nil && l.Key == "instance" {
				renumbered[j].Value = strconv.Itoa(v + 7)
			}
		}
		wantKey, wantLs = referenceKey(name, renumbered)
		if k != wantKey || !slices.Equal(ls, wantLs) {
			t.Fatalf("%q %q renumbered: keyed %q with labels %q, want %q with %q", name, labels, k, ls, wantKey, wantLs)
		}
	}
}

// keyOf returns the key m is registered under in r, for failure messages.
func keyOf(r *Registry, m *metric) string {
	for k, v := range r.metrics {
		if v == m {
			return k
		}
	}
	return "<absent>"
}

// TestRegistryLookupAllocs holds the registry to what the keying promises:
// finding an existing series allocates nothing, whatever its kind, and a
// Merge folding series dst already has allocates nothing per series.
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry()
	ls := []Label{L("role", "ingress"), L("pipe", "3"), L("arch", "adcp"), L("instance", "12")}
	fn := func() float64 { return 1 }
	for name, op := range map[string]func(){
		"Counter":     func() { r.Counter("c", ls...).Inc() },
		"Gauge":       func() { r.Gauge("g", L("tm", "1"), L("arch", "rmt")).Set(2) },
		"Histogram":   func() { r.Histogram("h", ls...).Observe(3) },
		"Set":         func() { r.Set("exp.v", 4, ls...) },
		"ObserveFunc": func() { r.ObserveFunc("f", fn, ls...) },
	} {
		op() // registers the series
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s: looking up an existing series allocates %v objects, want 0", name, got)
		}
	}

	merge := func(series int) float64 {
		src, dst := NewRegistry(), NewRegistry()
		for _, reg := range []*Registry{src, dst} {
			for i := 0; i < series; i++ {
				reg.Counter("pkts", L("port", strconv.Itoa(i)), L("arch", "adcp")).Add(1)
			}
		}
		return testing.AllocsPerRun(20, func() { dst.Merge(src) })
	}
	small, large := merge(8), merge(1024)
	if perSeries := (large - small) / (1024 - 8); perSeries != 0 {
		t.Errorf("merging existing series allocates %v objects per series (%v for 8 series, %v for 1024), want 0", perSeries, small, large)
	}
}
