package experiments

import (
	"context"
	"fmt"

	"repro/internal/perf"
	"repro/internal/sim"
)

// WatchdogError reports an experiment killed by the watchdog: its
// wall-clock deadline expired (or its context was canceled) before the
// experiment returned.
type WatchdogError struct {
	Name string
	Err  error
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("experiment %s: watchdog tripped: %v", e.Name, e.Err)
}

func (e *WatchdogError) Unwrap() error { return e.Err }

// Run executes one experiment under a watchdog. Two independent bounds
// convert a runaway simulation into a reported failure instead of a hang
// (a wall-clock kill also records exp.watchdog.trips{exp=name} = 1):
//
//   - eventBudget > 0 bounds the simulated side: every sim.Engine built
//     while fn runs refuses to dispatch past that many events, and netsim
//     surfaces the exhaustion as a run error.
//   - ctx carries the wall-clock side: when it expires before fn returns,
//     Run gives up waiting and returns a *WatchdogError.
//
// A tripped watchdog abandons fn's goroutine — it keeps running until its
// own event budget stops it — so Run is for top-level harnesses (the CLI,
// CI) that exit soon after, not for libraries needing clean cancellation.
func Run(ctx context.Context, name string, eventBudget uint64, fn func() error) error {
	if eventBudget > 0 {
		prev := sim.SetDefaultEventBudget(eventBudget)
		defer sim.SetDefaultEventBudget(prev)
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("experiment %s panicked: %v", name, r)
			}
		}()
		// perf.Phase labels CPU-profile samples with exp=<name> and, when
		// the wall-clock perf plane is enabled, publishes the experiment's
		// wall time, events/s, and allocation deltas as perf.phase.*.
		done <- perf.Phase(name, fn)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		record("watchdog.trips", 1, lbl("exp", name))
		return &WatchdogError{Name: name, Err: ctx.Err()}
	}
}
