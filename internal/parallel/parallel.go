// Package parallel is the sweep-execution engine: it fans independent
// experiment points (seed × configuration cells of a sweep) across a
// bounded worker pool and merges their telemetry deterministically, so a
// sweep's output is byte-identical no matter how many workers ran it.
//
// The design follows the same argument the repository's source paper makes
// for stateful in-network computing — and that State-Compute Replication
// (Xu et al.) makes for switch state: stateful work parallelizes cleanly
// when each replica sees its full input and results merge in a fixed
// order. A sweep point is exactly such a unit: it owns its seed, builds
// its own network and switch, and reports into its own telemetry hub. The
// pool schedules points onto workers in any order; determinism is restored
// at the merge, which folds point-local hubs into the destination hub in
// point order (telemetry.Merge renumbers instance labels and sampler run
// ordinals so the merged export equals a sequential run's, byte for byte).
//
// Every point is handed its hub as an argument: a point-local mirror of
// the destination at every pool width — Workers == 1 merely executes the
// points in order on the caller's goroutine — so one worker and eight
// produce the same bytes by the same mechanism, which the golden tests
// pin. The only exception is a destination hub whose recorder exports:
// traces are not mergeable, so points are then handed the destination
// itself and run in order, exactly as a pre-pool harness would.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perf"
	"repro/internal/telemetry"
)

// Point is one independent unit of a sweep: a closure that runs a full
// experiment point and records its results into declared slots (row
// slices indexed by point) and the telemetry hub it is handed. A Point
// must not share mutable state with other points — each builds its own
// simulator objects — and must be deterministic given its declared seed.
type Point struct {
	// Name identifies the point in errors and progress ("failover[3]").
	// It is also the point's journal identity, so it must be stable
	// across runs of the same sweep configuration.
	Name string
	// Spec optionally describes the point's configuration for the journal
	// (human-readable; not interpreted).
	Spec string
	// Seed optionally records the point's RNG seed in the journal.
	Seed int64
	// Slot optionally points at the point's result cell (a row in the
	// sweep's result slice). When a journal is active, the slot is
	// JSON-round-tripped with the point's telemetry: persisted on
	// completion, restored in place on resume. It must marshal/unmarshal
	// losslessly; Body must confine its result writes to it.
	Slot any
	// Body executes the point, observing into the hub it is handed: a
	// point-local mirror of Options.Hub, Options.Hub itself when its
	// recorder exports, or nil when Options.Hub is nil.
	Body func(tel *telemetry.Telemetry) error
	// Run executes a point that is handed no hub, when Body is nil:
	// bench only; delete with ROADMAP 1(b)/13(e).
	Run func() error
}

// Options configure a Run.
type Options struct {
	// Workers bounds the pool; ≤ 0 selects runtime.NumCPU(). With one
	// worker, points run in order on the caller's goroutine — still in
	// point-local hubs merged back in order, so output bytes are
	// independent of the width. A destination hub whose recorder exports
	// is handed to the points themselves instead: traces are not
	// mergeable.
	Workers int
	// Hub is the merge destination: each point is handed a point-local
	// mirror of it (fresh registry, fresh sampler with the same interval
	// and capacity) and the mirrors fold back into Hub in point order
	// after all points finish. Nil hands every point a nil hub: telemetry
	// off.
	Hub *telemetry.Telemetry
	// OnDone, when set, is called after each point completes, serialized
	// across workers: done counts completed points, total is len(points).
	// Points restored from the journal fire it too, in point order,
	// before execution starts.
	OnDone func(done, total int, name string, err error)
	// Retry supervises failing points: bounded attempts with seeded
	// exponential backoff, and optional quarantine on exhaustion. The
	// zero value preserves the classic single-attempt behavior.
	Retry RetryPolicy
	// Journal, when set, makes the sweep durable: completed points
	// persist their slot and telemetry, and points the journal already
	// holds are restored instead of re-run, merging into the exact bytes
	// an uninterrupted run produces. Ignored on the trace path (the CLI
	// refuses to combine a run directory with tracing).
	Journal Journal
}

// Run executes every point and returns the points' errors joined in point
// order (nil when all succeeded). A panicking point is captured as that
// point's error — one exploding point neither takes down the pool nor the
// process. All points always run; callers that need fail-fast semantics
// check the returned error afterward, which keeps the completed/merged
// telemetry deterministic even for partially failing sweeps.
func Run(points []Point, opt Options) error {
	n := len(points)
	if n == 0 {
		return nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	// Wall-clock pool observability: when the perf plane is on, each
	// point's queue wait (pool start → worker pickup) and busy time are
	// charged to its worker slot, and the run's wall time and merge stall
	// land in the pool aggregate. pp == nil costs nothing beyond one
	// atomic load; none of this touches the deterministic telemetry hubs.
	pp := perf.Active()
	poolStart := time.Now()
	if opt.Hub.Rec().Exporting() {
		// Trace events cannot be merged across hubs, so hand the points
		// the destination itself and run them in order.
		for i := range points {
			errs[i] = execPoint(pp, poolStart, points[i], 0, opt.Hub)
			if opt.OnDone != nil {
				opt.OnDone(i+1, n, points[i].Name, errs[i])
			}
		}
		pp.PoolRun(time.Since(poolStart), 0)
		return join(points, errs)
	}

	// Journal restore pass: points the journal holds complete replay from
	// their persisted payloads — slot written in place, decoded hub queued
	// for the same deterministic merge a live hub would get — so a resumed
	// sweep and an uninterrupted one merge identical state in identical
	// order.
	hubs := make([]*telemetry.Telemetry, n)
	restored := make([]bool, n)
	restoredCount := 0
	if opt.Journal != nil {
		for i := range points {
			if hub, ok := restorePoint(opt.Journal, points[i], opt.Hub); ok {
				hubs[i] = hub
				restored[i] = true
				restoredCount++
				pp.ResumeRestored()
			}
		}
	}
	if opt.OnDone != nil {
		d := 0
		for i := range points {
			if restored[i] {
				d++
				opt.OnDone(d, n, points[i].Name, nil)
			}
		}
	}

	if workers == 1 {
		d := restoredCount
		for i := range points {
			if restored[i] {
				continue
			}
			hubs[i], errs[i] = runSupervised(pp, poolStart, opt, points[i], 0)
			d++
			if opt.OnDone != nil {
				opt.OnDone(d, n, points[i].Name, errs[i])
			}
		}
	} else {
		var next, done atomic.Int64
		done.Store(int64(restoredCount))
		var progressMu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if restored[i] {
						continue
					}
					hub, err := runSupervised(pp, poolStart, opt, points[i], worker)
					hubs[i], errs[i] = hub, err
					if opt.OnDone != nil {
						progressMu.Lock()
						opt.OnDone(int(done.Add(1)), n, points[i].Name, errs[i])
						progressMu.Unlock()
					} else {
						done.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Deterministic merge: point order, regardless of completion order.
	mergeStart := time.Now()
	if opt.Hub != nil {
		for i := range hubs {
			telemetry.Merge(opt.Hub, hubs[i])
		}
	}
	pp.PoolRun(time.Since(poolStart), time.Since(mergeStart))
	return join(points, errs)
}

// execPoint runs one point in tel under pprof labels naming the sweep
// point and worker slot — CPU profiles (adcpsim -cpuprofile, /debug/pprof)
// then attribute samples per point — and, when the perf plane is on,
// charges the point's queue wait and busy time to the worker.
func execPoint(pp *perf.Plane, poolStart time.Time, p Point, worker int, tel *telemetry.Telemetry) (err error) {
	pickup := time.Now()
	pprof.Do(context.Background(), pprof.Labels("point", p.Name, "worker", strconv.Itoa(worker)), func(context.Context) {
		err = runPoint(p, tel)
	})
	pp.PoolPoint(worker, pickup.Sub(poolStart), time.Since(pickup))
	return err
}

// runPoint executes one point, converting a panic into a *panicError
// carrying the worker stack, so a crashing sweep point surfaces as a
// classified experiment failure instead of killing the process.
func runPoint(p Point, tel *telemetry.Telemetry) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if p.Body != nil {
		return p.Body(tel)
	}
	return p.Run()
}

// join wraps each point's error with its index and name and joins them in
// point order.
func join(points []Point, errs []error) error {
	var out []error
	for i, err := range errs {
		if err == nil {
			continue
		}
		name := points[i].Name
		if name == "" {
			name = fmt.Sprintf("point %d", i)
		}
		out = append(out, fmt.Errorf("%s: %w", name, err))
	}
	return errors.Join(out...)
}
