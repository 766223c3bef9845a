package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// This file serializes a quiescent telemetry hub — registry plus sampler —
// so the run journal (internal/runstate) can persist a completed unit's
// telemetry and a -resume can merge it back later. The contract that makes
// kill-and-resume byte-identical to an uninterrupted run is:
//
//	Merge(dst, MustDecodeHubState(EncodeHubState(src))) ≡ Merge(dst, src)
//
// for any quiescent src: identical registry contents, identical instance
// renumbering, identical sampler run shifts and ring contents, and — for
// later samples against the shared hub — read closures frozen at the same
// final values a sequential run would keep reading from the stale metric
// objects. Encoding is canonical (slices sorted, maps never marshaled), so
// equal states produce equal bytes and the journal can digest them.

// HubStateSchema identifies the persisted hub document layout.
const HubStateSchema = "adcp-hubstate/1"

type metricState struct {
	Name   string              `json:"name"`
	Labels []Label             `json:"labels,omitempty"`
	Kind   Kind                `json:"kind"`
	Count  *uint64             `json:"count,omitempty"`
	Gauge  *stats.GaugeState   `json:"gauge,omitempty"`
	Hist   *stats.LogHistState `json:"hist,omitempty"`
	Value  *float64            `json:"value,omitempty"`
}

type registryState struct {
	InstSeq  int           `json:"inst_seq"`
	InstKeys []string      `json:"inst_keys,omitempty"`
	Metrics  []metricState `json:"metrics"`
}

type seriesState struct {
	Name    string  `json:"name"`
	Labels  []Label `json:"labels,omitempty"`
	Kind    Kind    `json:"kind"`
	Dropped uint64  `json:"dropped,omitempty"`
	Points  []Point `json:"points"`
}

type samplerState struct {
	IntervalPs int64         `json:"interval_ps"`
	Capacity   int           `json:"capacity"`
	Runs       int           `json:"runs"`
	LastRun    int           `json:"last_run"`
	LastTPs    int64         `json:"last_t_ps"`
	Series     []seriesState `json:"series"`
}

type hubState struct {
	Schema   string         `json:"schema"`
	Registry *registryState `json:"registry,omitempty"`
	Sampler  *samplerState  `json:"sampler,omitempty"`
}

// EncodeHubState serializes t's registry and sampler canonically. KindFunc
// metrics are frozen to their value at encode time — exact for a quiescent
// hub, and exactly what a sequential run's later snapshots would read from
// the stale closure. The recorder is not persisted: the CLI refuses
// -run-dir with tracing, and the flight ring is diagnostic state outside
// the deterministic exports.
func EncodeHubState(t *Telemetry) ([]byte, error) {
	doc := hubState{Schema: HubStateSchema}
	if t != nil && t.Metrics != nil {
		doc.Registry = encodeRegistry(t.Metrics)
	}
	if t != nil && t.Sampler != nil {
		doc.Sampler = encodeSampler(t.Sampler)
	}
	return json.Marshal(doc)
}

func encodeRegistry(r *Registry) *registryState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &registryState{InstSeq: r.instSeq}
	for k := range r.instKeys {
		st.InstKeys = append(st.InstKeys, k)
	}
	sort.Strings(st.InstKeys)
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st.Metrics = make([]metricState, 0, len(keys))
	for _, k := range keys {
		m := r.metrics[k]
		ms := metricState{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			n := m.counter.Value()
			ms.Count = &n
		case KindGauge:
			gs := m.gauge.g.State()
			ms.Gauge = &gs
		case KindHistogram:
			hs := m.hist.h.State()
			ms.Hist = &hs
		case KindValue:
			v := m.value
			ms.Value = &v
		case KindFunc:
			v := m.fn()
			ms.Value = &v
		}
		st.Metrics = append(st.Metrics, ms)
	}
	return st
}

func encodeSampler(s *Sampler) *samplerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &samplerState{
		IntervalPs: int64(s.interval), Capacity: s.capacity,
		Runs: s.runs, LastRun: s.lastRun, LastTPs: int64(s.lastT),
	}
	keys := make([]string, 0, len(s.series))
	for k := range s.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st.Series = make([]seriesState, 0, len(keys))
	for _, k := range keys {
		ser := s.series[k]
		pts := ser.ordered()
		if pts == nil {
			pts = []Point{}
		}
		st.Series = append(st.Series, seriesState{
			Name: ser.name, Labels: ser.labels, Kind: ser.kind,
			Dropped: ser.dropped, Points: pts,
		})
	}
	return st
}

// DecodeHubState reconstructs a hub from EncodeHubState output. The result
// is quiescent and merge-equivalent to the hub that was encoded: decoded
// sampler series carry read closures bound to the decoded registry's
// metric objects (or frozen at the encoded value for func metrics), so
// series the destination adopts keep sampling exactly the values the
// original stale closures would have produced.
func DecodeHubState(b []byte) (*Telemetry, error) {
	var doc hubState
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("telemetry: decode hub state: %w", err)
	}
	if doc.Schema != HubStateSchema {
		return nil, fmt.Errorf("telemetry: hub state schema %q, want %q", doc.Schema, HubStateSchema)
	}
	t := &Telemetry{}
	if doc.Registry != nil {
		t.Metrics = decodeRegistry(doc.Registry)
	}
	if doc.Sampler != nil {
		if t.Metrics == nil {
			return nil, fmt.Errorf("telemetry: hub state has a sampler but no registry")
		}
		t.Sampler = decodeSampler(doc.Sampler, t.Metrics)
	}
	return t, nil
}

func decodeRegistry(st *registryState) *Registry {
	r := NewRegistry()
	r.instSeq = st.InstSeq
	for _, k := range st.InstKeys {
		r.instKeys[k] = true
	}
	var kbuf [keyBytes]byte
	for _, ms := range st.Metrics {
		k := canonicalKey(kbuf[:0], ms.Name, ms.Labels)
		m := newMetric(ms.Name, ms.Labels, ms.Kind)
		switch ms.Kind {
		case KindCounter:
			if ms.Count != nil {
				m.counter.Add(*ms.Count)
			}
		case KindGauge:
			if ms.Gauge != nil {
				m.gauge.g.RestoreState(*ms.Gauge)
			}
		case KindHistogram:
			if ms.Hist != nil {
				m.hist.h.RestoreState(*ms.Hist)
			}
		case KindValue:
			if ms.Value != nil {
				m.value = *ms.Value
			}
		case KindFunc:
			v := 0.0
			if ms.Value != nil {
				v = *ms.Value
			}
			m.fn = func() float64 { return v }
		}
		r.metrics[string(k)] = m
	}
	return r
}

func decodeSampler(st *samplerState, reg *Registry) *Sampler {
	s := NewSampler(reg, sim.Time(st.IntervalPs), st.Capacity)
	s.runs, s.lastRun, s.lastT = st.Runs, st.LastRun, sim.Time(st.LastTPs)
	s.regLen = len(reg.metrics)
	var kbuf [keyBytes]byte
	for _, ss := range st.Series {
		k := string(canonicalKey(kbuf[:0], ss.Name, ss.Labels))
		ser := &sampledSeries{
			name: ss.Name, labels: ss.Labels, kind: ss.Kind,
			dropped: ss.Dropped, pts: append([]Point(nil), ss.Points...),
		}
		// Rebind the read closure to the decoded metric object so the
		// series keeps sampling its frozen final value if the destination
		// adopts it — matching a sequential run's stale closures.
		if m, ok := reg.metrics[k]; ok {
			switch m.kind {
			case KindCounter:
				c := m.counter
				ser.read = func() float64 { return float64(c.Value()) }
			case KindGauge:
				g := m.gauge
				ser.read = func() float64 { return float64(g.Value()) }
			case KindFunc:
				fn := m.fn
				ser.read = func() float64 { return fn() }
			}
		}
		if ser.read == nil {
			last := 0.0
			if len(ss.Points) > 0 {
				last = ss.Points[len(ss.Points)-1].V
			}
			ser.read = func() float64 { return last }
		}
		s.series[k] = ser
	}
	return s
}

// Mirror builds a hub matching the destination's shape: a fresh registry
// when the destination records metrics, a fresh sampler with the
// destination's interval and capacity when it samples. The recorder is
// shared, not mirrored: its flight ring is a concurrency-safe diagnostic
// ring outside the deterministic exports, and a post-mortem dump should see
// every worker's last moves. No mirror is built of a hub whose recorder
// exports: the parallel sweep engine mirrors per point only when it does
// not, and a run journal (the CLI mirrors per experiment under one)
// refuses tracing.
func Mirror(dst *Telemetry) *Telemetry {
	if dst == nil {
		return nil
	}
	local := &Telemetry{Detail: dst.Detail, Recorder: dst.Recorder}
	if dst.Metrics != nil {
		local.Metrics = NewRegistry()
		if dst.Sampler != nil {
			local.Sampler = NewSampler(local.Metrics, dst.Sampler.Interval(), dst.Sampler.Capacity())
		}
	}
	return local
}
