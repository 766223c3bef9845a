package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Error("zero value not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(3)
	g.Add(2)
	if g.Value() != 5 {
		t.Errorf("Value = %d, want 5", g.Value())
	}
	if g.Peak() != 10 {
		t.Errorf("Peak = %d, want 10", g.Peak())
	}
	g.Add(20)
	if g.Peak() != 25 {
		t.Errorf("Peak = %d, want 25", g.Peak())
	}
}

// A gauge that only ever held negative values must report its true
// (negative) maximum, not the implicit zero initialization.
func TestGaugePeakAllNegative(t *testing.T) {
	var g Gauge
	g.Set(-7)
	g.Set(-3)
	g.Set(-12)
	if g.Peak() != -3 {
		t.Errorf("Peak = %d, want -3", g.Peak())
	}
	var unset Gauge
	if unset.Peak() != 0 {
		t.Errorf("unset gauge Peak = %d, want 0", unset.Peak())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 15 {
		t.Errorf("Sum = %v, want 15", h.Sum())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5) // forces sort
	h.Observe(1)
	if h.Min() != 1 {
		t.Errorf("Min after late observe = %v, want 1", h.Min())
	}
}

func TestHistogramStddev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if got := h.Stddev(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Stddev = %v, want 2", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestHistogramMeanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			h.Observe(float64(v))
		}
		sort.Float64s(vals)
		m := h.Mean()
		return m >= vals[0]-1e-9 && m <= vals[len(vals)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta", FormatSI(12800.0))
	out := tbl.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("missing rows")
	}
	if !strings.Contains(out, "12.80k") {
		t.Errorf("FormatSI cell lost its SI suffix: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only") // short row pads
	out := tbl.String()
	if !strings.Contains(out, "only") {
		t.Error("short row missing")
	}
}

// A row wider than the header must fail loudly: silent truncation has
// already hidden data from table output once.
func TestTableOverWideRowPanics(t *testing.T) {
	tbl := NewTable("t", "a", "b", "c")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddRow with 4 cells for 3 headers did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "4 cells for 3 headers") {
			t.Errorf("panic message %v lacks cell/header counts", r)
		}
	}()
	tbl.AddRow("1", "2", "3", "4")
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{12.8e12, "12.80T"},
		{5.95e9, "5.95G"},
		{1.25e6, "1.25M"},
		{6400, "6.40k"},
		{84, "84"},
		{0.95, "0.95"},
		{-1.62e9, "-1.62G"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v); got != c.want {
			t.Errorf("FormatSI(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
