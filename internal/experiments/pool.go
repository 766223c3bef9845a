package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// poolWorkers holds the configured sweep parallelism (0 = NumCPU);
// pointProgress holds the optional per-point progress callback. Both are
// process-wide knobs, as are the run journal and retry policy below:
// service.RunExperiments sets all four for the duration of a run.
var (
	poolWorkers   atomic.Int32
	pointProgress atomic.Value // func(sweep string, done, total int)
	poolJournal   atomic.Value // journalBox
	poolRetry     atomic.Value // parallel.RetryPolicy
)

// journalBox wraps the journal interface so atomic.Value can hold nil.
type journalBox struct{ j parallel.Journal }

// SetParallelism sets the worker-pool width every sweep in this package
// uses for its independent points, returning the previous setting so
// harnesses (and benchmarks) can restore it. n ≤ 0 selects
// runtime.NumCPU(). Parallelism only changes scheduling, never results:
// sweep telemetry and tables are merged in point order, so output bytes
// are identical at any width.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(poolWorkers.Swap(int32(n)))
}

// SetPointProgress installs a callback invoked (serialized) after each
// sweep point completes, with the sweep's name and completed/total point
// counts (the CLI's -progress); nil uninstalls.
func SetPointProgress(fn func(sweep string, done, total int)) {
	pointProgress.Store(fn)
}

// SetJournal installs the run journal every sweep records into: completed
// points persist their result slot and telemetry, and a resumed process
// replays them instead of re-running (the CLI's -run-dir, a daemon job's
// run directory). nil uninstalls.
func SetJournal(j parallel.Journal) { poolJournal.Store(journalBox{j: j}) }

// SetRetryPolicy installs the supervised-retry policy every sweep applies
// to failing points (bounded attempts, seeded backoff, optional
// quarantine). The zero policy restores classic single-attempt behavior.
func SetRetryPolicy(p parallel.RetryPolicy) { poolRetry.Store(p) }

// RetryPolicy returns the installed retry policy.
func RetryPolicy() parallel.RetryPolicy {
	if p, ok := poolRetry.Load().(parallel.RetryPolicy); ok {
		return p
	}
	return parallel.RetryPolicy{}
}

// runPointsSlot executes n independent sweep points through the parallel
// engine: point(i, tel) is handed its own hub, a mirror of hub, and the
// mirrors merge back into hub in point order, so the sweep's exported
// metrics and samples are byte-identical to a sequential run. point must
// observe into tel alone and confine its writes to index i of the sweep's
// result slots. A hub whose recorder exports is handed to the points
// themselves, run in order (parallel.Run: traces are not mergeable).
// slot(i), when given, returns a pointer to point i's result cell,
// JSON-round-tripped through the run journal so a resume restores the row
// without re-running the point; meta(i), when given, supplies the
// human-readable spec and RNG seed the journal records for the point.
// Points quarantined by the retry policy are recorded as exp.quarantined
// markers (labels: sweep, point, class; value: attempts) before the
// joined error returns — the rest of the sweep has completed and merged.
func runPointsSlot(hub *telemetry.Telemetry, sweep string, n int, slot func(i int) any, meta func(i int) (spec string, seed int64),
	point func(i int, tel *telemetry.Telemetry) error) error {
	pts := make([]parallel.Point, n)
	for i := range pts {
		pts[i] = parallel.Point{
			Name: fmt.Sprintf("%s[%d]", sweep, i),
			Body: func(tel *telemetry.Telemetry) error { return point(i, tel) },
		}
		if slot != nil {
			pts[i].Slot = slot(i)
		}
		if meta != nil {
			pts[i].Spec, pts[i].Seed = meta(i)
		}
	}
	var onDone func(done, total int, name string, err error)
	if v := pointProgress.Load(); v != nil {
		if fn, ok := v.(func(string, int, int)); ok && fn != nil {
			onDone = func(done, total int, _ string, _ error) { fn(sweep, done, total) }
		}
	}
	jb, _ := poolJournal.Load().(journalBox)
	err := parallel.Run(pts, parallel.Options{
		Workers: int(poolWorkers.Load()), Hub: hub, OnDone: onDone,
		Retry: RetryPolicy(), Journal: jb.j,
	})
	if reg := hub.Reg(); reg != nil {
		for _, qe := range quarantinedIn(err) {
			reg.Set("exp.quarantined", float64(qe.Attempts),
				telemetry.L("sweep", sweep), telemetry.L("point", qe.Point), telemetry.L("class", qe.Class))
		}
	}
	return err
}

// netConfig is netsim.DefaultConfig(hosts) observing into tel.
func netConfig(tel *telemetry.Telemetry, hosts int) netsim.Config {
	cfg := netsim.DefaultConfig(hosts)
	cfg.Telemetry = tel
	return cfg
}

// quarantinedIn collects every *parallel.QuarantinedError in err's tree
// (parallel.Run joins per-point errors; each quarantined point contributes
// one).
func quarantinedIn(err error) []*parallel.QuarantinedError {
	if multi, ok := err.(interface{ Unwrap() []error }); ok {
		var out []*parallel.QuarantinedError
		for _, e := range multi.Unwrap() {
			out = append(out, quarantinedIn(e)...)
		}
		return out
	}
	var qe *parallel.QuarantinedError
	if errors.As(err, &qe) {
		return []*parallel.QuarantinedError{qe}
	}
	return nil
}
