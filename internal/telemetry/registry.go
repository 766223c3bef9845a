package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Label is one key=value dimension of a metric. Metrics with the same name
// but different label sets are distinct series. The JSON form is the
// persisted hub state's (EncodeHubState).
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a registered metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"   // monotonically increasing count
	KindGauge     Kind = "gauge"     // settable instantaneous value + peak
	KindHistogram Kind = "histogram" // order statistics over observations
	KindValue     Kind = "value"     // scalar result (experiment headline)
	KindFunc      Kind = "func"      // evaluated lazily at snapshot time
)

// Counter is a registered monotonic counter.
type Counter struct{ c stats.Counter }

// Inc increments by one.
func (c *Counter) Inc() { c.c.Inc() }

// Add increments by d.
func (c *Counter) Add(d uint64) { c.c.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.c.Value() }

// Gauge is a registered instantaneous value that tracks its peak.
type Gauge struct{ g stats.Gauge }

// Set sets the gauge.
func (g *Gauge) Set(v int64) { g.g.Set(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.g.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.g.Value() }

// Peak returns the maximum value ever set.
func (g *Gauge) Peak() int64 { return g.g.Peak() }

// Histogram is a registered distribution, backed by a bounded log-bucketed
// stats.LogHist: memory is O(buckets) regardless of how many observations
// a run records, Observe is O(1), and quantiles carry ≤5% relative error
// (the design bound is ~1.6%; count/sum/mean/min/max stay exact). That
// trade makes it safe to observe per-packet latencies on million-packet
// runs, which the previous store-and-sort histogram was not.
type Histogram struct{ h stats.LogHist }

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.h.Observe(v) }

// Count returns the number of observations.
func (h *Histogram) Count() int { return h.h.Count() }

// Quantile returns the approximate q-quantile (≤5% relative error).
func (h *Histogram) Quantile(q float64) float64 { return h.h.Quantile(q) }

// Snap summarizes the histogram.
func (h *Histogram) Snap() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.h.Count(), Sum: h.h.Sum(), Mean: h.h.Mean(),
		Min: h.h.Min(), Max: h.h.Max(),
		P50: h.h.Quantile(0.50), P90: h.h.Quantile(0.90), P99: h.h.Quantile(0.99),
	}
}

// metric is one series.
type metric struct {
	name   string
	labels []Label // sorted by key then value
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	value   float64
	fn      func() float64
}

// A counter, gauge or histogram is allocated with its metric, which points
// into the pair (newMetric).
type counterMetric struct {
	metric
	Counter
}

type gaugeMetric struct {
	metric
	Gauge
}

type histMetric struct {
	metric
	Histogram
}

// Registry is a per-run set of named, labeled metrics. The zero value is
// not usable; call NewRegistry. A Registry is safe for concurrent use
// (benchmark sub-tests may report from multiple goroutines), but snapshot
// ordering never depends on registration order or goroutine scheduling:
// snapshots sort by name, then labels.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// instSeq numbers InstanceLabel allocations; instKeys remembers which
	// label keys carry those ordinals, so Merge knows which label values
	// to renumber when folding a point-local registry into a shared one.
	instSeq  int
	instKeys []string // a handful at most: "net", "instance"
	// labels and keys are the slabs a new series' sorted labels and map key
	// are cut from, so a series costs one allocation (its metric) rather
	// than three.
	labels []Label
	keys   strings.Builder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// A slab is twice the size of the one before it, from the first size up to
// the last. The last is small on purpose: a slab's unused tail is the
// price of cutting, and a registry of a few hundred series must not pay
// more in tails than its exactly-sized copies once cost.
const (
	firstSlabLabels, slabLabels = 2, 16
	firstSlabBytes, slabBytes   = 128, 1024
)

// cutLabels returns a copy of ls cut from the label slab (nil when empty).
// A full slab is left to what was cut from it and a new one begun, so
// nothing cut ever moves; the same holds for keys.
func (r *Registry) cutLabels(ls []Label) []Label {
	if len(ls) == 0 {
		return nil
	}
	if cap(r.labels)-len(r.labels) < len(ls) {
		r.labels = make([]Label, 0, max(min(2*cap(r.labels), slabLabels), firstSlabLabels, len(ls)))
	}
	r.labels = append(r.labels, ls...)
	return r.labels[len(r.labels)-len(ls) : len(r.labels) : len(r.labels)]
}

// cutKey returns k as a string cut from the key slab.
func (r *Registry) cutKey(k []byte) string {
	if r.keys.Cap()-r.keys.Len() < len(k) {
		size := max(min(2*r.keys.Cap(), slabBytes), firstSlabBytes, len(k))
		r.keys = strings.Builder{}
		r.keys.Grow(size)
	}
	n := r.keys.Len()
	r.keys.Write(k)
	return r.keys.String()[n:]
}

// Keying runs in buffers on the caller's stack, large enough for every
// series the simulator registers; a larger set or key spills to the heap
// and keys the same.
const keyLabels, keyBytes = 8, 192

// canonicalKey sorts ls in place by key, then value — an insertion sort:
// allocation-free, and fastest on sets this short — and appends the
// series' canonical key, name then \0 key \1 value per label, to b.
func canonicalKey(b []byte, name string, ls []Label) []byte {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && (ls[j].Key < ls[j-1].Key || ls[j].Key == ls[j-1].Key && ls[j].Value < ls[j-1].Value); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	b = append(b, name...)
	for _, l := range ls {
		b = append(append(append(append(b, 0), l.Key...), 1), l.Value...)
	}
	return b
}

// sortedKeys returns m's keys in order; series keys sort by name, then
// labels.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// newMetric builds an empty series of the given kind, its value in the
// same allocation; ls must already be sorted and is kept.
func newMetric(name string, ls []Label, kind Kind) *metric {
	var m *metric
	switch kind {
	case KindCounter:
		x := new(counterMetric)
		m, x.counter = &x.metric, &x.Counter
	case KindGauge:
		x := new(gaugeMetric)
		m, x.gauge = &x.metric, &x.Gauge
	case KindHistogram:
		x := new(histMetric)
		m, x.hist = &x.metric, &x.Histogram
	default:
		m = new(metric)
	}
	m.name, m.labels, m.kind = name, ls, kind
	return m
}

// lookup returns the metric registered under (name, labels), creating it
// when absent. Finding an existing series allocates nothing; a new one is
// one allocation, its key and sorted labels cut from the registry's slabs.
// Registering the same series under a different kind panics: it is always
// a naming bug, and silently aliasing two meanings onto one series would
// corrupt the export.
func (r *Registry) lookup(name string, labels []Label, kind Kind) *metric {
	var lbuf [keyLabels]Label
	var kbuf [keyBytes]byte
	ls := append(lbuf[:0], labels...)
	k := canonicalKey(kbuf[:0], name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[string(k)]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := newMetric(name, r.cutLabels(ls), kind)
	r.metrics[r.cutKey(k)] = m
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, labels, KindCounter).counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, labels, KindGauge).gauge
}

// Histogram returns the histogram registered under (name, labels),
// creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, labels, KindHistogram).hist
}

// Set records a scalar result metric (an experiment headline number).
// Setting the same series again overwrites it, so re-running an experiment
// within one process is idempotent.
func (r *Registry) Set(name string, v float64, labels ...Label) {
	m := r.lookup(name, labels, KindValue)
	r.mu.Lock()
	m.value = v
	r.mu.Unlock()
}

// ObserveFunc registers fn to be evaluated at snapshot time — instrument a
// component without any hot-path cost. Re-registering an existing series
// replaces the function (the newest instance wins).
func (r *Registry) ObserveFunc(name string, fn func() float64, labels ...Label) {
	m := r.lookup(name, labels, KindFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// InstanceLabel allocates a fresh instance label under key: its value is
// the next registry-wide ordinal ("0", "1", ...), shared across all
// instance keys so values are unique within one registry. Construction
// order is deterministic in this single-goroutine simulator, so instance
// labels are stable across runs — and because the registry remembers which
// keys carry instance ordinals, Merge can renumber them when point-local
// registries fold into a shared one, reproducing exactly the numbering a
// sequential run would have allocated.
func (r *Registry) InstanceLabel(key string) Label {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addInstKey(key)
	v := strconv.Itoa(r.instSeq)
	r.instSeq++
	return Label{Key: key, Value: v}
}

// addInstKey remembers that key carries instance ordinals.
func (r *Registry) addInstKey(key string) {
	if !slices.Contains(r.instKeys, key) {
		r.instKeys = append(r.instKeys, key)
	}
}

// renumbering is how a merge shifts instance labels: the values of keys
// move up by offset. vals caches the shifted value of each of the source's
// ordinals, so a merge makes each new value once however many series carry
// it.
type renumbering struct {
	keys   []string
	offset int
	vals   []string
}

// apply returns labels as the destination holds them: labels itself when no
// instance value moves, else the renumbered copy, appended to buf[:0].
// Non-numeric values (impossible for InstanceLabel allocations) pass
// through untouched.
func (rn *renumbering) apply(buf, labels []Label) ([]Label, bool) {
	if rn == nil || rn.offset == 0 {
		return labels, false
	}
	moved := false
	for i, l := range labels {
		if !slices.Contains(rn.keys, l.Key) {
			continue
		}
		v, err := strconv.Atoi(l.Value)
		if err != nil {
			continue
		}
		if !moved {
			buf, moved = append(buf[:0], labels...), true
		}
		if v < 0 || v >= len(rn.vals) {
			buf[i].Value = strconv.Itoa(v + rn.offset)
			continue
		}
		if rn.vals[v] == "" {
			rn.vals[v] = strconv.Itoa(v + rn.offset)
		}
		buf[i].Value = rn.vals[v]
	}
	if !moved {
		return labels, false
	}
	return buf, true
}

// Merge folds src into r. Counters add, gauges keep src's value and the
// maximum peak, histograms merge bucket-by-bucket (stats.LogHist), scalar
// values and func metrics are overwritten by src (newest wins), and series
// absent from r are adopted wholesale — their live ObserveFunc closures
// included. Instance labels allocated by src's InstanceLabel are
// renumbered to continue r's sequence, so merging point-local registries
// in sweep-point order reproduces the numbering — and therefore the
// byte-exact snapshot — of a sequential run. src must be quiescent (its
// run complete); merging a series registered under a different kind in r
// panics, as in lookup.
func (r *Registry) Merge(src *Registry) {
	r.mergeFrom(src)
}

// mergeFrom implements Merge and returns the instance renumbering it
// applied — the sampler merge must relabel with exactly the same shift.
// Source series fold in map order: instance values are canonical decimals,
// so renumbering maps distinct source keys to distinct destination keys,
// no two of them meet, and the order cannot show.
func (r *Registry) mergeFrom(src *Registry) *renumbering {
	if src == nil || src == r {
		return nil
	}
	// src is quiescent, so holding its lock across the fold costs nothing
	// and spares a copy of its series.
	src.mu.Lock()
	defer src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	// The cache is bounded by the source's size, not its sequence: a hub
	// decoded from a journal carries whatever inst_seq the file said.
	rn := &renumbering{keys: src.instKeys, offset: r.instSeq, vals: make([]string, min(max(src.instSeq, 0), len(src.metrics)))}
	r.instSeq += src.instSeq
	for _, k := range rn.keys {
		r.addInstKey(k)
	}
	var lbuf [keyLabels]Label
	var kbuf [keyBytes]byte
	for k, m := range src.metrics {
		ls, moved := rn.apply(lbuf[:0], m.labels)
		var dst *metric
		var ok bool
		if moved {
			kb := canonicalKey(kbuf[:0], m.name, ls)
			if dst, ok = r.metrics[string(kb)]; !ok {
				k, ls = r.cutKey(kb), r.cutLabels(ls)
			}
		} else {
			dst, ok = r.metrics[k]
		}
		if !ok {
			// Adopt the live metric object: ObserveFunc closures and any
			// sampler read closures built over it stay valid.
			m.labels = ls
			r.metrics[k] = m
			continue
		}
		if dst.kind != m.kind {
			panic(fmt.Sprintf("telemetry: merge of metric %q registered as %s, merged as %s",
				m.name, dst.kind, m.kind))
		}
		switch dst.kind {
		case KindCounter:
			dst.counter.Add(m.counter.Value())
		case KindGauge:
			dst.gauge.g.Merge(&m.gauge.g)
		case KindHistogram:
			dst.hist.h.Merge(&m.hist.h)
		case KindValue:
			dst.value = m.value
		case KindFunc:
			dst.fn = m.fn
		}
	}
	return rn
}

// HistogramSnapshot summarizes a histogram at snapshot time.
type HistogramSnapshot struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// MetricSnapshot is one exported series.
type MetricSnapshot struct {
	Name   string             `json:"name"`
	Labels map[string]string  `json:"labels,omitempty"`
	Kind   Kind               `json:"kind"`
	Value  float64            `json:"value"`
	Peak   *int64             `json:"peak,omitempty"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is the exported state of a registry.
type Snapshot struct {
	// Schema versions the document layout.
	Schema  string           `json:"schema"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// SnapshotSchema identifies the metrics document layout.
const SnapshotSchema = "adcp-metrics/1"

// series is one metric as an export reads it: its value (a counter's
// count, a gauge's level, a histogram's mean, a func's result), a gauge's
// peak and a histogram's summary (nil for other kinds).
type series struct {
	m    *metric
	v    float64
	peak int64
	hist *HistogramSnapshot
}

// evaluate captures every metric sorted by name then labels (the order of
// their keys), evaluating each KindFunc once, in that order: the one
// ordering step Snapshot and WriteJSON share. The histograms' summaries
// share one slice.
func (r *Registry) evaluate() []series {
	r.mu.Lock()
	keys := sortedKeys(r.metrics)
	ss := make([]series, len(keys))
	hists := 0
	for i, k := range keys {
		ss[i].m = r.metrics[k]
		if ss[i].m.kind == KindHistogram {
			hists++
		}
	}
	r.mu.Unlock()
	hs := make([]HistogramSnapshot, 0, hists)
	for i := range ss {
		s := &ss[i]
		switch m := s.m; m.kind {
		case KindCounter:
			s.v = float64(m.counter.Value())
		case KindGauge:
			s.v, s.peak = float64(m.gauge.Value()), m.gauge.Peak()
		case KindHistogram:
			hs = append(hs, m.hist.Snap())
			s.hist = &hs[len(hs)-1]
			s.v = s.hist.Mean
		case KindValue:
			s.v = m.value
		case KindFunc:
			s.v = m.fn()
		}
	}
	return ss
}

// Snapshot captures every metric, sorted by name then labels, evaluating
// KindFunc metrics in that same deterministic order.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Schema: SnapshotSchema}
	for _, s := range r.evaluate() {
		ms := MetricSnapshot{Name: s.m.name, Labels: labelMap(s.m.labels), Kind: s.m.kind, Value: s.v}
		switch s.m.kind {
		case KindGauge:
			peak := s.peak
			ms.Peak = &peak
		case KindHistogram:
			hs := *s.hist
			ms.Hist = &hs
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// labelMap is ls as an exported label map; nil when ls is empty.
func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// WriteJSON writes the snapshot as indented JSON, byte-identical across
// runs that registered the same series with the same values: series are
// sorted, labels are in key order, and nothing depends on the wall clock.
// The bytes are exactly json.MarshalIndent(r.Snapshot(), "", "  ") plus a
// newline, written without reflection: each series is appended to one
// reused buffer that goes to w in pieces. A NaN or an infinity fails the
// export, naming its series, before a byte is written.
func (r *Registry) WriteJSON(w io.Writer) error {
	ss := r.evaluate()
	for i := range ss {
		for j, v := range ss[i].floats() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m, ls := ss[i].m, make([]string, len(ss[i].m.labels))
				for k, l := range m.labels {
					ls[k] = fmt.Sprintf("%s=%q", l.Key, l.Value)
				}
				return fmt.Errorf("telemetry: metric %s{%s}: %s is %v, which JSON cannot carry", m.name, strings.Join(ls, ","), floatNames[j], v)
			}
		}
	}
	const flushAt = 32 << 10
	b := append(make([]byte, 0, flushAt+4<<10), "{\n  \"schema\": \""+SnapshotSchema+"\",\n  \"metrics\": "...)
	if len(ss) == 0 {
		_, err := w.Write(append(b, "null\n}\n"...))
		return err
	}
	for i := range ss {
		b = ss[i].appendJSON(append(b, "[,"[min(i, 1)]))
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(append(b, "\n  ]\n}\n"...))
	return err
}

// floatNames are the JSON names of a series' floats, in their order.
var floatNames = [8]string{"value", "sum", "mean", "min", "max", "p50", "p90", "p99"}

// floats are s's value and its histogram summary, as floatNames names
// them; a series without one has zeros there.
func (s *series) floats() [8]float64 {
	h := s.hist
	if h == nil {
		h = new(HistogramSnapshot)
	}
	return [8]float64{s.v, h.Sum, h.Mean, h.Min, h.Max, h.P50, h.P90, h.P99}
}

// appendJSON appends s as one element of the indented metrics array,
// field for field in MetricSnapshot's order and layout.
func (s *series) appendJSON(b []byte) []byte {
	m := s.m
	b = appendJSONString(append(b, "\n    {\n      \"name\": "...), m.name)
	if len(m.labels) > 0 {
		sep := ",\n      \"labels\": {\n        "
		for i, l := range m.labels {
			// Sorted by key, then value: of a repeated key, a map kept the last.
			if i+1 < len(m.labels) && m.labels[i+1].Key == l.Key {
				continue
			}
			b = appendJSONString(append(appendJSONString(append(b, sep...), l.Key), ": "...), l.Value)
			sep = ",\n        "
		}
		b = append(b, "\n      }"...)
	}
	b = appendJSONString(append(b, ",\n      \"kind\": "...), string(m.kind))
	b = appendJSONFloat(append(b, ",\n      \"value\": "...), s.v)
	switch m.kind {
	case KindGauge:
		b = strconv.AppendInt(append(b, ",\n      \"peak\": "...), s.peak, 10)
	case KindHistogram:
		b = strconv.AppendInt(append(b, ",\n      \"histogram\": {\n        \"count\": "...), int64(s.hist.Count), 10)
		fs := s.floats()
		for j, v := range fs[1:] {
			b = appendJSONFloat(append(append(append(b, ",\n        \""...), floatNames[j+1]...), "\": "...), v)
		}
		b = append(b, "\n      }"...)
	}
	return append(b, "\n    }"...)
}

// appendJSONFloat appends a finite f as encoding/json's floatEncoder does
// (ES6 number-to-string): 'f' format, switching to 'e' below 1e-6 and from
// 1e21 up, with e-0X trimmed to e-X.
func appendJSONFloat(b []byte, f float64) []byte {
	// A whole number below 2^53 has exactly its integer's digits as its
	// shortest 'f' form; -0 keeps its sign through AppendFloat.
	if f != 0 && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.AppendInt(b, int64(f), 10)
	}
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json's HTML-safe encoder leaves alone is copied raw; anything
// else (a quote, a backslash, a control byte, <, >, &, non-ASCII or invalid
// UTF-8) goes through json.Marshal, which cannot fail on a string, so its
// escaping is encoding/json's by construction.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
