package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRunPassesThroughResult(t *testing.T) {
	sentinel := errors.New("boom")
	if err := Run(context.Background(), "ok", 0, func() error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := Run(context.Background(), "fail", 0, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("experiment error not passed through: %v", err)
	}
}

func TestRunWallClockDeadlineTrips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release := make(chan struct{})
	defer close(release)
	err := Run(ctx, "hang", 0, func() error { <-release; return nil })
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("want *WatchdogError, got %v", err)
	}
	if we.Name != "hang" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("watchdog error %+v", we)
	}
}

// TestRunEventBudgetBoundsSimulation: engines built inside fn inherit the
// watchdog's event budget, so a runaway simulation halts and the
// experiment can report the exhaustion as an ordinary error.
func TestRunEventBudgetBoundsSimulation(t *testing.T) {
	err := Run(context.Background(), "runaway", 50, func() error {
		e := sim.NewEngine()
		var step func()
		step = func() { e.PostAfter(sim.Microsecond, step) }
		e.Schedule(0, step)
		e.Run()
		if e.BudgetExceeded() {
			return errors.New("event budget exceeded")
		}
		return nil
	})
	if err == nil || err.Error() != "event budget exceeded" {
		t.Fatalf("runaway not bounded: %v", err)
	}
	// The budget was scoped to the Run call: engines built after it are
	// unbounded again.
	if e := sim.NewEngine(); func() bool {
		var fired int
		var step func()
		step = func() {
			if fired++; fired < 100 {
				e.PostAfter(sim.Microsecond, step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return e.BudgetExceeded()
	}() {
		t.Fatal("budget leaked past Run")
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(context.Background(), "explode", 0, func() error { panic("kaboom") })
	if err == nil {
		t.Fatal("panic swallowed")
	}
	var we *WatchdogError
	if errors.As(err, &we) {
		t.Fatalf("panic misreported as watchdog trip: %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic value lost: %v", err)
	}
}
