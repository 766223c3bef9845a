package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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
	instKeys map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), instKeys: make(map[string]bool)}
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

// newMetric builds an empty series of the given kind; ls must already be
// sorted and is kept.
func newMetric(name string, ls []Label, kind Kind) *metric {
	m := &metric{name: name, labels: ls, kind: kind}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	return m
}

// lookup returns the metric registered under (name, labels), creating it
// when absent. Finding an existing series allocates nothing; a new one
// copies its key and its sorted labels once. Registering the same series
// under a different kind panics: it is always a naming bug, and silently
// aliasing two meanings onto one series would corrupt the export.
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
	m := newMetric(name, append([]Label(nil), ls...), kind)
	r.metrics[string(k)] = m
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
	r.instKeys[key] = true
	v := strconv.Itoa(r.instSeq)
	r.instSeq++
	return Label{Key: key, Value: v}
}

// mergeKey is the key and labels a merged source series takes in its
// destination: src's own unless an instance-key value shifts by offset,
// when the renumbered copy is made and keyed once. Non-numeric values
// (impossible for InstanceLabel allocations) pass through untouched.
func mergeKey(srcKey, name string, labels []Label, instKeys map[string]bool, offset int) (string, []Label) {
	var out []Label
	for i, l := range labels {
		if offset == 0 || !instKeys[l.Key] {
			continue
		}
		if v, err := strconv.Atoi(l.Value); err == nil {
			if out == nil {
				out = append([]Label(nil), labels...)
			}
			out[i].Value = strconv.Itoa(v + offset)
		}
	}
	if out == nil {
		return srcKey, labels
	}
	var kbuf [keyBytes]byte
	return string(canonicalKey(kbuf[:0], name, out)), out
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

// mergeFrom implements Merge and reports the instance renumbering it
// applied — the sampler merge must relabel with exactly the same shift.
func (r *Registry) mergeFrom(src *Registry) (offset int, instKeys map[string]bool) {
	if src == nil || src == r {
		return 0, nil
	}
	src.mu.Lock()
	keys := make([]string, 0, len(src.metrics))
	for k := range src.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = src.metrics[k]
	}
	instKeys = make(map[string]bool, len(src.instKeys))
	for k := range src.instKeys {
		instKeys[k] = true
	}
	srcSeq := src.instSeq
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	offset = r.instSeq
	r.instSeq += srcSeq
	for k := range instKeys {
		r.instKeys[k] = true
	}
	for i, m := range ms {
		k, ls := mergeKey(keys[i], m.name, m.labels, instKeys, offset)
		dst, ok := r.metrics[k]
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
	return offset, instKeys
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

// Snapshot captures every metric, sorted by name then labels, evaluating
// KindFunc metrics in that same deterministic order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = r.metrics[k]
	}
	r.mu.Unlock()

	snap := Snapshot{Schema: SnapshotSchema}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = float64(m.gauge.Value())
			peak := m.gauge.Peak()
			s.Peak = &peak
		case KindHistogram:
			hs := m.hist.Snap()
			s.Hist = &hs
			s.Value = hs.Mean
		case KindValue:
			s.Value = m.value
		case KindFunc:
			s.Value = m.fn()
		}
		snap.Metrics = append(snap.Metrics, s)
	}
	return snap
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// WriteJSON serializes the snapshot as indented JSON. The output is
// byte-identical across runs that registered the same series with the same
// values: series are sorted, label maps marshal in key order, and nothing
// wall-clock-dependent is included.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
