package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Point is one sampled value of one series. Run identifies which engine
// attachment produced the sample: experiments construct networks (and
// engines) sequentially, each starting its clock at zero, so points carry
// the engine-local simulated time plus the attachment ordinal instead of
// pretending all engines share one clock.
type Point struct {
	Run int      `json:"run"`
	T   sim.Time `json:"t_ps"`
	V   float64  `json:"v"`
}

// SeriesData is the exported form of one sampled series.
type SeriesData struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   Kind              `json:"kind"`
	// Dropped counts points overwritten by the ring buffer (oldest-first).
	Dropped uint64  `json:"dropped,omitempty"`
	Points  []Point `json:"points"`
}

// sampledSeries is one ring buffer of Points.
type sampledSeries struct {
	name    string
	labels  []Label
	kind    Kind
	read    func() float64
	pts     []Point // ring storage, len ≤ cap
	head    int     // index of oldest point when full
	full    bool
	dropped uint64
}

func (s *sampledSeries) push(p Point, capacity int) {
	if len(s.pts) < capacity {
		s.pts = append(s.pts, p)
		return
	}
	s.pts[s.head] = p
	s.head = (s.head + 1) % capacity
	s.full = true
	s.dropped++
}

// ordered returns the points oldest-first.
func (s *sampledSeries) ordered() []Point {
	if !s.full {
		return append([]Point(nil), s.pts...)
	}
	out := make([]Point, 0, len(s.pts))
	out = append(out, s.pts[s.head:]...)
	out = append(out, s.pts[:s.head]...)
	return out
}

// Sampler periodically snapshots every scalar metric of a Registry —
// counters, gauges, and func metrics — into bounded ring-buffer time
// series, driven by *simulated* time via the sim.Engine dispatch hook.
// Samples are stamped on the interval grid (k·interval), so two runs at
// the same seed produce byte-identical CSV/JSON exports.
//
// A Sampler may be attached to several engines over its life (experiments
// build one network after another); each attachment gets its own run
// ordinal. All sampling happens on the simulation goroutine; exports take
// the sampler lock, so a serving goroutine may export concurrently.
type Sampler struct {
	mu       sync.Mutex
	reg      *Registry
	interval sim.Time
	capacity int

	series  map[string]*sampledSeries // by registry key
	regLen  int                       // registry size at last refresh
	runs    int
	lastRun int
	lastT   sim.Time

	// OnSample, when set, is called after each recorded sample, on the
	// simulation goroutine — the safe place to publish registry snapshots
	// for a concurrent HTTP plane. Set it before attaching engines.
	OnSample func(run int, at sim.Time)
}

// DefaultSampleInterval is the sampling period used when none is given.
const DefaultSampleInterval = 10 * sim.Microsecond

// DefaultSampleCapacity bounds each series ring unless overridden.
const DefaultSampleCapacity = 4096

// NewSampler builds a sampler over reg. interval ≤ 0 selects
// DefaultSampleInterval; capacity ≤ 0 selects DefaultSampleCapacity.
func NewSampler(reg *Registry, interval sim.Time, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		series:   make(map[string]*sampledSeries),
	}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() sim.Time { return s.interval }

// Capacity returns the per-series ring-buffer bound.
func (s *Sampler) Capacity() int { return s.capacity }

// Attach registers the sampler on an engine's dispatch hook and records a
// baseline sample at the engine's current time. Nil-safe, so call sites
// can attach unconditionally.
func (s *Sampler) Attach(eng *sim.Engine) {
	if s == nil {
		return
	}
	s.mu.Lock()
	run := s.runs
	s.runs++
	s.mu.Unlock()
	s.sample(run, eng.Now())
	next := (eng.Now()/s.interval + 1) * s.interval
	eng.AddDispatchHook(func(at sim.Time, pending int, fired uint64) {
		if at < next {
			return
		}
		// Stamp on the grid: the sample reflects state just before the
		// first event at or past the boundary.
		stamp := (at / s.interval) * s.interval
		s.sample(run, stamp)
		next = stamp + s.interval
	})
}

// refreshLocked rebuilds the series map from the registry when series were
// registered since the last sample. Caller holds s.mu.
func (s *Sampler) refreshLocked() {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if len(s.reg.metrics) == s.regLen {
		return
	}
	s.regLen = len(s.reg.metrics)
	for k, m := range s.reg.metrics {
		if _, ok := s.series[k]; ok {
			continue
		}
		var read func() float64
		switch m.kind {
		case KindCounter:
			c := m.counter
			read = func() float64 { return float64(c.Value()) }
		case KindGauge:
			g := m.gauge
			read = func() float64 { return float64(g.Value()) }
		case KindFunc:
			read = func() float64 { return m.fn() }
		default:
			continue // histograms and headline values have their own exports
		}
		s.series[k] = &sampledSeries{name: m.name, labels: m.labels, kind: m.kind, read: read}
	}
}

// sample records one point for every scalar series.
func (s *Sampler) sample(run int, at sim.Time) {
	s.mu.Lock()
	s.refreshLocked()
	for _, ser := range s.series {
		ser.push(Point{Run: run, T: at, V: ser.read()}, s.capacity)
	}
	s.lastRun, s.lastT = run, at
	cb := s.OnSample
	s.mu.Unlock()
	if cb != nil {
		cb(run, at)
	}
}

// Sample records one point for every scalar series at the given run/time —
// for harnesses without an engine (synchronous switch drives).
func (s *Sampler) Sample(run int, at sim.Time) {
	if s == nil {
		return
	}
	s.sample(run, at)
}

// Last returns the run ordinal and simulated time of the newest sample.
func (s *Sampler) Last() (run int, at sim.Time) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRun, s.lastT
}

// Runs returns how many engines have been attached.
func (s *Sampler) Runs() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// merge folds a quiescent point-local sampler into s: src's run ordinals
// are shifted past every run s has already recorded, instance-label values
// are shifted as the registry merge shifted them (rn, from
// Registry.mergeFrom), and points append oldest-first under s's ring
// capacity. Merging point samplers in sweep-point order therefore
// reproduces exactly the run numbering and point sequence of a sequential
// run over one shared sampler. Series fold in map order, which cannot show
// for the reason it cannot in mergeFrom.
func (s *Sampler) merge(src *Sampler, rn *renumbering) {
	if s == nil || src == nil || src == s {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	runOffset := s.runs
	s.runs += src.runs
	var kbuf [keyBytes]byte
	for k, ser := range src.series {
		ls, moved := rn.apply(nil, ser.labels)
		if moved {
			k = string(canonicalKey(kbuf[:0], ser.name, ls))
		}
		dst, ok := s.series[k]
		if !ok {
			dst = &sampledSeries{name: ser.name, labels: ls, kind: ser.kind, read: ser.read}
			s.series[k] = dst
		}
		for _, p := range ser.ordered() {
			p.Run += runOffset
			dst.push(p, s.capacity)
		}
		dst.dropped += ser.dropped
	}
	if src.runs > 0 {
		s.lastRun, s.lastT = src.lastRun+runOffset, src.lastT
	}
}

// Series exports every sampled series, sorted by name then labels, each
// with points oldest-first. Series that never received a point (registered
// after the last sample) are included with empty Points.
func (s *Sampler) Series() []SeriesData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := sortedKeys(s.series)
	out := make([]SeriesData, 0, len(keys))
	for _, k := range keys {
		ser := s.series[k]
		out = append(out, SeriesData{
			Name: ser.name, Labels: labelMap(ser.labels), Kind: ser.kind,
			Dropped: ser.dropped, Points: ser.ordered(),
		})
	}
	return out
}

// labelString renders labels as k=v pairs joined by ';' (already sorted).
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, k := range sortedKeys(labels) {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// WriteCSV writes every series as rows of
// name,labels,run,t_ps,value — sorted by series, points oldest-first.
// Output is byte-identical across same-seed runs: timestamps are simulated,
// series are sorted, and floats render with %g.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "name,labels,run,t_ps,value"); err != nil {
		return err
	}
	for _, sd := range s.Series() {
		ls := labelString(sd.Labels)
		for _, p := range sd.Points {
			if _, err := fmt.Fprintf(bw, "%s,%s,%d,%d,%g\n", sd.Name, ls, p.Run, int64(p.T), p.V); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SamplesSchema identifies the sampler JSON document layout.
const SamplesSchema = "adcp-samples/1"

// samplesDoc is the JSON container for a sampler export.
type samplesDoc struct {
	Schema     string       `json:"schema"`
	IntervalPs int64        `json:"interval_ps"`
	Runs       int          `json:"runs"`
	Series     []SeriesData `json:"series"`
}

// WriteJSON writes the sampled series as one indented JSON document,
// byte-identical across same-seed runs.
func (s *Sampler) WriteJSON(w io.Writer) error {
	doc := samplesDoc{
		Schema:     SamplesSchema,
		IntervalPs: int64(s.interval),
		Runs:       s.Runs(),
		Series:     s.Series(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
