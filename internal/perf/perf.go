// Package perf is the wall-clock performance plane of the simulator: it
// observes how fast the simulator itself runs — events per second through
// the discrete-event dispatch loop, allocations and GC work per experiment,
// worker-pool utilization — where internal/telemetry observes what the
// *simulated* switch and network did in simulated time.
//
// The two planes are deliberately segregated. Everything in the telemetry
// registry is deterministic for a given seed, exported byte-identically at
// any sweep-pool width, and golden-pinned; everything here is wall-clock
// and machine-dependent, so it lives in its own registry and its own
// export document (`adcpsim -perf-json`, the `/perf` endpoint, the perf
// section of the HTML report) and must never leak into the deterministic
// exports. Enabling this plane changes no simulated behavior: the dispatch
// meter samples the clock once per window of events and publishes only
// into the perf registry, which the golden tests pin (sweep output is
// byte-identical with the plane on or off, at any -parallel width).
//
// The plane is process-wide and explicitly enabled (Enable/Disable);
// instrumentation points call Active and pay one atomic load when the
// plane is off. The plane says where one run's wall time went; a claim that
// a change made the simulator faster is made with the repository benchmark
// under bench/, not with these numbers.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Plane is the process-wide wall-clock performance plane: a dedicated
// metric registry fed by dispatch-loop meters, per-experiment memstats
// deltas, and worker-pool accounting. Build one with New (tests) or
// Enable (harnesses); the zero value is not usable.
type Plane struct {
	reg   *telemetry.Registry
	start time.Time

	// Dispatch-meter aggregate: every Meter flushes its window counts here
	// (internal/perf/meter.go). events and wallNs advance only at window
	// boundaries, so concurrent readers always see a consistent ratio.
	events   atomic.Uint64
	wallNs   atomic.Int64
	batches  atomic.Uint64
	batchMax atomic.Uint64

	// Memory accounting: deltas against the ReadMemStats snapshot taken at
	// construction, refreshed on export and at phase boundaries. heapPeak
	// is the maximum HeapAlloc seen at any refresh point.
	memMu    sync.Mutex
	baseline runtime.MemStats
	memCache runtime.MemStats
	heapPeak atomic.Uint64

	// Worker-pool accounting (fed by internal/parallel).
	poolMu      sync.Mutex
	workers     map[int]*workerStats
	poolRuns    atomic.Uint64
	poolWallNs  atomic.Int64
	poolPoints  atomic.Uint64
	queueWaitNs atomic.Int64
	mergeNs     atomic.Int64

	// Resilience accounting (fed by the supervised retry plane in
	// internal/parallel and the journal restore pass).
	retryRetries     atomic.Uint64
	retryQuarantined atomic.Uint64
	resumeRestored   atomic.Uint64

	// Experiment-service job accounting (fed by internal/service).
	jobsStarted    atomic.Uint64
	jobsDone       atomic.Uint64
	jobsActive     atomic.Int64
	jobAttempts    atomic.Uint64
	jobQueueWaitNs atomic.Int64
	jobBusyNs      atomic.Int64
}

type workerStats struct {
	busyNs atomic.Int64
	points atomic.Uint64
}

// active holds the enabled plane; nil when the plane is off.
var active atomic.Pointer[Plane]

// New builds a standalone plane (not installed process-wide). Tests use
// this to exercise meters and phases without touching global state.
func New() *Plane {
	p := &Plane{
		reg:     telemetry.NewRegistry(),
		start:   time.Now(),
		workers: make(map[int]*workerStats),
	}
	runtime.ReadMemStats(&p.baseline)
	p.memCache = p.baseline
	p.noteHeap(p.baseline.HeapAlloc)
	p.register()
	return p
}

// Enable installs a fresh plane process-wide and returns it. Subsequent
// engines, sweeps, and phases report into it until Disable. Enabling
// replaces any previous plane (its registry stays readable by holders of
// the pointer but receives no further meter flushes from new engines).
func Enable() *Plane {
	p := New()
	active.Store(p)
	return p
}

// Disable turns the plane off; instrumentation points revert to their
// one-atomic-load fast path.
func Disable() { active.Store(nil) }

// Active returns the enabled plane, or nil. All Plane methods used from
// instrumentation points are safe on a nil receiver.
func Active() *Plane { return active.Load() }

// Registry exposes the plane's wall-clock metric registry (perf.* series).
func (p *Plane) Registry() *telemetry.Registry { return p.reg }

// register wires the lazily-evaluated perf.* series over the plane's
// aggregate state. Everything is an ObserveFunc reading atomics (or the
// mutex-guarded memstats cache), so snapshots taken from the /perf handler
// while workers run are race-free.
func (p *Plane) register() {
	reg := p.reg
	reg.ObserveFunc("perf.run.wall_s", func() float64 { return time.Since(p.start).Seconds() })
	reg.ObserveFunc("perf.run.events_per_s", func() float64 { return p.eventsPerSec() })
	reg.ObserveFunc("perf.run.allocs_per_event", func() float64 { return p.perEvent(p.memDelta().Mallocs) })
	reg.ObserveFunc("perf.run.bytes_per_event", func() float64 { return p.perEvent(p.memDelta().AllocBytes) })

	reg.ObserveFunc("perf.engine.events", func() float64 { return float64(p.events.Load()) })
	reg.ObserveFunc("perf.engine.sampled_wall_s", func() float64 { return float64(p.wallNs.Load()) / 1e9 })
	reg.ObserveFunc("perf.engine.batches", func() float64 { return float64(p.batches.Load()) })
	reg.ObserveFunc("perf.engine.batch_events_max", func() float64 { return float64(p.batchMax.Load()) })
	reg.ObserveFunc("perf.engine.batch_events_mean", func() float64 {
		if b := p.batches.Load(); b > 0 {
			return float64(p.events.Load()) / float64(b)
		}
		return 0
	})

	reg.ObserveFunc("perf.mem.heap_alloc_bytes", func() float64 { return float64(p.cachedMem().HeapAlloc) })
	reg.ObserveFunc("perf.mem.heap_peak_bytes", func() float64 { return float64(p.heapPeak.Load()) })
	reg.ObserveFunc("perf.mem.heap_sys_bytes", func() float64 { return float64(p.cachedMem().HeapSys) })
	reg.ObserveFunc("perf.mem.allocs", func() float64 { return float64(p.memDelta().Mallocs) })
	reg.ObserveFunc("perf.mem.alloc_bytes", func() float64 { return float64(p.memDelta().AllocBytes) })
	reg.ObserveFunc("perf.mem.gc_cycles", func() float64 { return float64(p.memDelta().GCCycles) })
	reg.ObserveFunc("perf.mem.gc_pause_ns", func() float64 { return float64(p.memDelta().GCPauseNs) })

	reg.ObserveFunc("perf.retry.retries", func() float64 { return float64(p.retryRetries.Load()) })
	reg.ObserveFunc("perf.retry.quarantined", func() float64 { return float64(p.retryQuarantined.Load()) })
	reg.ObserveFunc("perf.resume.restored", func() float64 { return float64(p.resumeRestored.Load()) })

	p.registerJobSeries()

	reg.ObserveFunc("perf.pool.runs", func() float64 { return float64(p.poolRuns.Load()) })
	reg.ObserveFunc("perf.pool.wall_s", func() float64 { return float64(p.poolWallNs.Load()) / 1e9 })
	reg.ObserveFunc("perf.pool.points", func() float64 { return float64(p.poolPoints.Load()) })
	reg.ObserveFunc("perf.pool.queue_wait_s", func() float64 { return float64(p.queueWaitNs.Load()) / 1e9 })
	reg.ObserveFunc("perf.pool.merge_stall_s", func() float64 { return float64(p.mergeNs.Load()) / 1e9 })
}

// eventsPerSec is metered events divided by metered wall time: both
// advance only at meter window boundaries, so the ratio is unbiased —
// residual sub-window tails are excluded from numerator and denominator
// alike.
func (p *Plane) eventsPerSec() float64 {
	if ns := p.wallNs.Load(); ns > 0 {
		return float64(p.events.Load()) / (float64(ns) / 1e9)
	}
	return 0
}

// perEvent normalizes a run-level total by metered events.
func (p *Plane) perEvent(total uint64) float64 {
	if ev := p.events.Load(); ev > 0 {
		return float64(total) / float64(ev)
	}
	return 0
}

// noteHeap folds one HeapAlloc observation into the peak (CAS max).
func (p *Plane) noteHeap(heap uint64) {
	for {
		cur := p.heapPeak.Load()
		if heap <= cur || p.heapPeak.CompareAndSwap(cur, heap) {
			return
		}
	}
}

// noteBatchMax folds one window's largest same-timestamp batch into the
// run maximum (CAS max).
func (p *Plane) noteBatchMax(n uint64) {
	for {
		cur := p.batchMax.Load()
		if n <= cur || p.batchMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// refreshMem re-reads runtime memory statistics into the cache the
// perf.mem.* series are evaluated from, and advances the heap peak.
// Called at phase boundaries and before every export — never per event
// (ReadMemStats stops the world).
func (p *Plane) refreshMem() {
	if p == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.memMu.Lock()
	p.memCache = m
	p.memMu.Unlock()
	p.noteHeap(m.HeapAlloc)
}

func (p *Plane) cachedMem() runtime.MemStats {
	p.memMu.Lock()
	defer p.memMu.Unlock()
	return p.memCache
}

// memDelta returns the allocation/GC deltas accumulated since the plane
// was built, from the cached memstats.
func (p *Plane) memDelta() MemDelta {
	p.memMu.Lock()
	defer p.memMu.Unlock()
	return memDelta(&p.baseline, &p.memCache)
}

// MemDelta is the allocation and GC work between two memstats snapshots.
type MemDelta struct {
	Mallocs    uint64 // heap objects allocated
	AllocBytes uint64 // heap bytes allocated (cumulative, not live)
	GCCycles   uint32 // completed GC cycles
	GCPauseNs  uint64 // total stop-the-world pause
}

// memDelta subtracts two runtime.MemStats snapshots field-by-field. The
// source counters are monotonic over a process lifetime, but the math is
// still guarded: a crossed snapshot pair (after taken before before)
// yields zeros rather than wrapped 2^64 garbage.
func memDelta(before, after *runtime.MemStats) MemDelta {
	var d MemDelta
	if after.Mallocs > before.Mallocs {
		d.Mallocs = after.Mallocs - before.Mallocs
	}
	if after.TotalAlloc > before.TotalAlloc {
		d.AllocBytes = after.TotalAlloc - before.TotalAlloc
	}
	if after.NumGC > before.NumGC {
		d.GCCycles = after.NumGC - before.NumGC
	}
	if after.PauseTotalNs > before.PauseTotalNs {
		d.GCPauseNs = after.PauseTotalNs - before.PauseTotalNs
	}
	return d
}

// Totals is a programmatic summary of the plane, for harnesses that want
// the headline numbers without parsing an export (the CLI's stderr
// summary, the benchmark gates).
type Totals struct {
	Events         uint64  // events counted by the dispatch meters (window granularity)
	SampledWallS   float64 // wall seconds covered by meter windows
	EventsPerSec   float64 // Events / SampledWallS
	Mallocs        uint64  // heap objects allocated since Enable
	AllocBytes     uint64  // heap bytes allocated since Enable
	AllocsPerEvent float64
	BytesPerEvent  float64
	HeapPeakBytes  uint64
	GCCycles       uint32
	GCPauseNs      uint64
}

// Totals refreshes memory statistics and returns the plane's headline
// numbers.
func (p *Plane) Totals() Totals {
	p.refreshMem()
	d := p.memDelta()
	return Totals{
		Events:         p.events.Load(),
		SampledWallS:   float64(p.wallNs.Load()) / 1e9,
		EventsPerSec:   p.eventsPerSec(),
		Mallocs:        d.Mallocs,
		AllocBytes:     d.AllocBytes,
		AllocsPerEvent: p.perEvent(d.Mallocs),
		BytesPerEvent:  p.perEvent(d.AllocBytes),
		HeapPeakBytes:  p.heapPeak.Load(),
		GCCycles:       d.GCCycles,
		GCPauseNs:      d.GCPauseNs,
	}
}

// Summary renders a one-line human digest for harness stderr.
func (p *Plane) Summary() string {
	t := p.Totals()
	return fmt.Sprintf("perf: %.3g events/s (%d events over %.2fs metered wall) · %.1f allocs/event · %.0f B/event · peak heap %.1f MiB · %d GC cycles",
		t.EventsPerSec, t.Events, t.SampledWallS, t.AllocsPerEvent, t.BytesPerEvent,
		float64(t.HeapPeakBytes)/(1<<20), t.GCCycles)
}

// DocumentSchema identifies the perf export layout.
const DocumentSchema = "adcp-perf/1"

// Document is the -perf-json / GET /perf export: the perf.* series plus
// the build identity of the binary that produced them, so a perf artifact
// is attributable to a commit.
type Document struct {
	Schema  string                     `json:"schema"`
	Build   BuildInfo                  `json:"build"`
	Metrics []telemetry.MetricSnapshot `json:"metrics"`
}

// Document snapshots the plane. Unlike the deterministic telemetry
// exports, two Documents from identical runs differ: this is wall-clock
// data by design.
func (p *Plane) Document() Document {
	p.refreshMem()
	snap := p.reg.Snapshot()
	return Document{Schema: DocumentSchema, Build: Build(), Metrics: snap.Metrics}
}

// WriteJSON serializes the Document as indented JSON.
func (p *Plane) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p.Document(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
