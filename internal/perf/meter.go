package perf

import (
	"time"

	"repro/internal/sim"
)

// MeterWindow is how many dispatched events a meter accumulates before it
// samples the wall clock and flushes into the plane aggregate. The hot
// path therefore costs one branch, two compares, and two increments per
// event; time.Now is paid once per window. A power of two keeps the
// arithmetic trivial for the compiler.
const MeterWindow = 1024

// Meter is a low-overhead throughput probe on one engine's dispatch loop.
// It is engine-local (the engine is single-goroutine by contract) and only
// touches shared plane state at window boundaries, via atomics. The
// unfinished tail window is flushed when the engine's Run or RunUntil
// returns, with the clock sampled then, so an engine that fires fewer
// events than a window still counts and the flushed total of a run is
// exactly the events its engines fired — deterministic for a deterministic
// simulation, independent of worker scheduling. Only an engine driven by
// bare Step calls keeps an unflushed tail.
type Meter struct {
	plane *Plane

	n        uint64 // events since last flush
	last     time.Time
	haveLast bool

	// Same-timestamp dispatch-batch accounting: a batch is a maximal run
	// of consecutive events sharing one simulated timestamp — the unit a
	// batched dispatch loop would hand out at once, so the batch-size
	// shape tells the ROADMAP's batching refactor what there is to win.
	lastAt   sim.Time
	batch    uint64
	batches  uint64 // completed batches since last flush
	batchMax uint64
}

// AttachMeter installs a throughput meter on eng's dispatch loop,
// reporting into p. No-op on a nil plane or engine.
func (p *Plane) AttachMeter(eng *sim.Engine) {
	if p == nil || eng == nil {
		return
	}
	m := &Meter{plane: p}
	eng.AddDispatchHook(m.hook)
	eng.AddRunEndHook(m.endRun)
}

// Attach installs a meter for the active plane; no-op when the plane is
// off. This is the one-liner construction sites (netsim.New) call.
func Attach(eng *sim.Engine) { Active().AttachMeter(eng) }

func (m *Meter) hook(at sim.Time, pending int, fired uint64) {
	if !m.haveLast {
		m.last = time.Now()
		m.haveLast = true
	}
	if m.batch == 0 {
		m.batch, m.lastAt = 1, at
	} else if at == m.lastAt {
		m.batch++
	} else {
		m.closeBatch()
		m.batch, m.lastAt = 1, at
	}
	m.n++
	if m.n >= MeterWindow {
		m.flush()
	}
}

// endRun flushes the tail window and stops the clock: time until the
// engine's next event belongs to whoever runs between two Run calls.
func (m *Meter) endRun() {
	if m.batch > 0 {
		m.closeBatch()
		m.batch = 0
	}
	if m.n > 0 {
		m.flush()
	}
	m.haveLast = false
}

func (m *Meter) closeBatch() {
	m.batches++
	if m.batch > m.batchMax {
		m.batchMax = m.batch
	}
}

// flush samples the wall clock once and folds the finished window into
// the plane aggregate.
func (m *Meter) flush() {
	now := time.Now()
	m.plane.wallNs.Add(now.Sub(m.last).Nanoseconds())
	m.plane.events.Add(m.n)
	m.last = now
	if m.batches > 0 {
		m.plane.batches.Add(m.batches)
	}
	m.plane.noteBatchMax(m.batchMax)
	m.n, m.batches, m.batchMax = 0, 0, 0
}
