// Package stats provides counters, gauges, histograms, and the plain-text
// table renderer used by the experiment harness to print paper-style
// tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing count. The zero value is ready to use.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Gauge is a settable instantaneous value that tracks its peak.
type Gauge struct {
	v, peak int64
	peakSet bool
}

// Set sets the gauge.
func (g *Gauge) Set(v int64) {
	g.v = v
	if !g.peakSet || v > g.peak {
		g.peak = v
		g.peakSet = true
	}
}

// Add adjusts the gauge by d (which may be negative).
func (g *Gauge) Add(d int64) { g.Set(g.v + d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Peak returns the maximum value ever set, even when every value was
// negative. A gauge that was never set reports 0.
func (g *Gauge) Peak() int64 { return g.peak }

// Merge folds o into g: the peak becomes the maximum of both peaks, and
// the value becomes o's — merge order is observation order, so the last
// merged gauge is the most recent writer. A never-set o leaves g alone.
func (g *Gauge) Merge(o *Gauge) {
	if o == nil || !o.peakSet {
		return
	}
	g.v = o.v
	if !g.peakSet || o.peak > g.peak {
		g.peak = o.peak
	}
	g.peakSet = true
}

// Histogram accumulates observations and reports order statistics.
// The zero value is ready to use.
type Histogram struct {
	vals   []float64
	sorted bool
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.vals = append(h.vals, v)
	h.sorted = false
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return len(h.vals) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vals))
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	h.sort()
	if len(h.vals) == 0 {
		return 0
	}
	return h.vals[0]
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	h.sort()
	if len(h.vals) == 0 {
		return 0
	}
	return h.vals[len(h.vals)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted
// observations, or 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.sort()
	if len(h.vals) == 0 {
		return 0
	}
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[len(h.vals)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.vals[idx]
}

// Stddev returns the population standard deviation.
func (h *Histogram) Stddev() float64 {
	n := len(h.vals)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
}

// Table renders fixed-width plain-text tables in the style of the paper.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty. Passing more cells
// than the table has headers panics: silently dropping data has produced
// wrong-looking tables before, and a row wider than its header is always a
// caller bug.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("stats: AddRow got %d cells for %d headers (table %q)",
			len(cells), len(t.headers), t.title))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Merge appends o's rows to t in order. Both tables must share the same
// header set; a mismatch panics, like AddRow, because merging fragments
// with different shapes is always a caller bug. The parallel sweep engine
// uses this to reassemble per-point table fragments in deterministic
// sweep-point order.
func (t *Table) Merge(o *Table) {
	if o == nil {
		return
	}
	if len(o.headers) != len(t.headers) {
		panic(fmt.Sprintf("stats: Merge of %d-column table into %d-column table (%q into %q)",
			len(o.headers), len(t.headers), o.title, t.title))
	}
	for i := range t.headers {
		if t.headers[i] != o.headers[i] {
			panic(fmt.Sprintf("stats: Merge header mismatch at column %d: %q vs %q",
				i, o.headers[i], t.headers[i]))
		}
	}
	t.rows = append(t.rows, o.rows...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+3*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// FormatSI renders v with an SI suffix (k, M, G, T) at 4 significant digits,
// e.g. 12.8e12 → "12.80T". Values below 1000 render plainly.
func FormatSI(v float64) string {
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%s%.2fT", neg, v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%s%.2fG", neg, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.2fM", neg, v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%s%.2fk", neg, v/1e3)
	case v == math.Trunc(v):
		return fmt.Sprintf("%s%.0f", neg, v)
	default:
		return fmt.Sprintf("%s%.4g", neg, v)
	}
}
