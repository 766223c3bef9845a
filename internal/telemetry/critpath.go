package telemetry

import (
	"sort"
	"strconv"

	"repro/internal/sim"
)

// CritPath collects, per coflow, the causal chain of the packet whose
// delivery set the coflow's completion time — the critical path. The
// selection rule mirrors coflow.Tracker.Deliver exactly (strictly later
// deliveries win, first-at-time wins ties), so the winning chain's final
// cursor is the coflow's LastDeliver and its bucket sum plus the source
// residual equals the measured CCT to the picosecond.
//
// CritPath is single-goroutine, like the simulation that feeds it; the
// parallel sweep engine gives every point its own network and therefore
// its own collector.
type CritPath struct {
	best map[uint32]critEntry
}

type critEntry struct {
	at sim.Time
	ch *Chain
}

// NewCritPath returns an empty collector.
func NewCritPath() *CritPath {
	return &CritPath{best: make(map[uint32]critEntry)}
}

// Deliver offers a delivered packet's chain as the coflow's candidate
// critical path. Nil-safe on both receiver and chain.
func (cp *CritPath) Deliver(coflow uint32, at sim.Time, ch *Chain) {
	if cp == nil || ch == nil {
		return
	}
	if cur, ok := cp.best[coflow]; !ok || at > cur.at {
		cp.best[coflow] = critEntry{at: at, ch: ch}
	}
}

// Coflows returns the coflow IDs with a recorded critical path, sorted.
func (cp *CritPath) Coflows() []uint32 {
	if cp == nil {
		return nil
	}
	ids := make([]uint32, 0, len(cp.best))
	for id := range cp.best {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Attribution returns the coflow's CCT decomposition: the winning chain's
// buckets plus the source residual (winning chain start − firstSend,
// time before the critical packet entered the wire path). firstSend is
// the coflow's FirstSend from its tracker, so Sum() of the result equals
// LastDeliver − FirstSend — the measured CCT — exactly.
func (cp *CritPath) Attribution(coflow uint32, firstSend sim.Time) (Breakdown, bool) {
	if cp == nil {
		return Breakdown{}, false
	}
	e, ok := cp.best[coflow]
	if !ok {
		return Breakdown{}, false
	}
	bd := e.ch.Breakdown()
	if d := e.ch.Start() - firstSend; d > 0 {
		bd[BucketSource] += d
	}
	return bd, true
}

// Publish writes every recorded coflow's attribution into reg as
// cct.attr.<bucket>_ps value series labeled by the owning component's
// labels plus coflow=<id>. firstSend maps coflow → FirstSend (coflows
// absent from the map use their chain start, i.e. zero source residual).
// Iteration is in sorted coflow order so registry contents are
// deterministic regardless of map layout.
func (cp *CritPath) Publish(reg *Registry, base []Label, firstSend func(uint32) (sim.Time, bool)) {
	if cp == nil || reg == nil {
		return
	}
	for _, id := range cp.Coflows() {
		fs := cp.best[id].ch.Start()
		if firstSend != nil {
			if v, ok := firstSend(id); ok {
				fs = v
			}
		}
		bd, _ := cp.Attribution(id, fs)
		ls := make([]Label, 0, len(base)+1)
		ls = append(ls, base...)
		ls = append(ls, L("coflow", strconv.FormatUint(uint64(id), 10)))
		for b := Bucket(0); b < NumBuckets; b++ {
			reg.Set(b.SeriesName(), float64(bd[b]), ls...)
		}
	}
}
