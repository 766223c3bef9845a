package stats

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// This file gives the accumulator types an explicit, canonical serialized
// form so a quiescent telemetry hub can be persisted by the run journal
// (internal/runstate) and restored on -resume with merge semantics
// identical to merging the live object. Canonical means: encoding the
// same logical state always yields the same bytes (maps are emitted as
// sorted pairs), which the resume byte-identity guarantee depends on.

// GaugeState is the serializable state of a Gauge.
type GaugeState struct {
	V    int64 `json:"v"`
	Peak int64 `json:"peak"`
	Set  bool  `json:"set"`
}

// State snapshots the gauge.
func (g *Gauge) State() GaugeState {
	return GaugeState{V: g.v, Peak: g.peak, Set: g.peakSet}
}

// RestoreState overwrites the gauge with a previously captured state.
func (g *Gauge) RestoreState(s GaugeState) {
	g.v, g.peak, g.peakSet = s.V, s.Peak, s.Set
}

// LogHistBucket is one live bucket of a serialized LogHist.
type LogHistBucket struct {
	ID    int32  `json:"id"`
	Count uint64 `json:"n"`
}

// LogHistState is the serializable state of a LogHist. Buckets are sorted
// by id so the encoding is canonical.
type LogHistState struct {
	Buckets []LogHistBucket `json:"buckets,omitempty"`
	Zero    uint64          `json:"zero,omitempty"`
	N       uint64          `json:"count"`
	Sum     float64         `json:"sum"`
	SumSq   float64         `json:"sum_sq"`
	Min     float64         `json:"min"`
	Max     float64         `json:"max"`
}

// State snapshots the histogram.
func (h *LogHist) State() LogHistState {
	s := LogHistState{Zero: h.zero, N: h.n, Sum: h.sum, SumSq: h.sumSq, Min: h.min, Max: h.max}
	if len(h.buckets) > 0 {
		s.Buckets = slices.Clone(h.buckets)
	}
	return s
}

// RestoreState overwrites the histogram with a previously captured state.
// Restore followed by Merge into another histogram is indistinguishable
// from merging the original live histogram.
func (h *LogHist) RestoreState(s LogHistState) {
	h.Reset()
	h.zero, h.n, h.sum, h.sumSq, h.min, h.max = s.Zero, s.N, s.Sum, s.SumSq, s.Min, s.Max
	// A state decoded from elsewhere may repeat or misorder ids: sort them
	// stably and keep each id's last count, as assigning them in turn would.
	bs := slices.Clone(s.Buckets)
	slices.SortStableFunc(bs, func(a, b LogHistBucket) int { return cmp.Compare(a.ID, b.ID) })
	h.buckets = bs[:0]
	for i := range bs {
		if i+1 == len(bs) || bs[i+1].ID != bs[i].ID {
			h.buckets = append(h.buckets, bs[i])
			if bs[i].ID&1 == 1 {
				h.neg += bs[i].Count
			}
		}
	}
}

// tableState mirrors Table's unexported fields for JSON round-tripping.
type tableState struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON serializes the table (title, headers, rows) so sweep table
// fragments can be persisted per point and merged on resume.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableState{Title: t.title, Headers: t.headers, Rows: t.rows})
}

// UnmarshalJSON restores a table serialized by MarshalJSON.
func (t *Table) UnmarshalJSON(b []byte) error {
	var s tableState
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("stats: decode table: %w", err)
	}
	t.title, t.headers, t.rows = s.Title, s.Headers, s.Rows
	return nil
}
