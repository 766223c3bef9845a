package sim

import (
	"fmt"
	"testing"
)

// chain schedules a self-rescheduling event: the degenerate runaway model
// the budget exists to stop.
func chain(e *Engine, every Time, fired *int) {
	var step func()
	step = func() {
		*fired++
		e.PostAfter(every, step)
	}
	e.Schedule(0, step)
}

func TestEventBudgetStopsRunawayChain(t *testing.T) {
	e := NewEngine()
	e.SetEventBudget(10)
	var fired int
	chain(e, Microsecond, &fired)
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d events, want exactly the budget of 10", fired)
	}
	if !e.BudgetExceeded() {
		t.Fatal("budget exhaustion not reported")
	}
	if e.Pending() == 0 {
		t.Fatal("runaway chain should still have its next event queued")
	}
	// The refusal is sticky: a further Run dispatches nothing.
	e.Run()
	if fired != 10 {
		t.Fatalf("engine dispatched past an exhausted budget: fired %d", fired)
	}
}

// TestBudgetExceededDistinguishesEmptyQueue: Run ending normally must not
// look like a budget kill.
func TestBudgetExceededDistinguishesEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.SetEventBudget(10)
	ran := false
	e.Schedule(0, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event not dispatched")
	}
	if e.BudgetExceeded() {
		t.Fatal("clean drain reported as budget exhaustion")
	}
}

func TestZeroBudgetIsUnbounded(t *testing.T) {
	e := NewEngine()
	var fired int
	var step func()
	step = func() {
		fired++
		if fired < 1000 {
			e.PostAfter(Nanosecond, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if fired != 1000 || e.BudgetExceeded() {
		t.Fatalf("fired %d, exceeded %v", fired, e.BudgetExceeded())
	}
}

// TestDefaultEventBudgetInherited: the process-wide default reaches
// engines built after it is set, and restoring the previous value stops
// the inheritance — the swap discipline the experiment watchdog relies on.
func TestDefaultEventBudgetInherited(t *testing.T) {
	prev := SetDefaultEventBudget(5)
	defer SetDefaultEventBudget(prev)
	e := NewEngine()
	var fired int
	chain(e, Microsecond, &fired)
	e.Run()
	if fired != 5 || !e.BudgetExceeded() {
		t.Fatalf("fired %d, exceeded %v — default budget not inherited", fired, e.BudgetExceeded())
	}
	if got := SetDefaultEventBudget(prev); got != 5 {
		t.Fatalf("swap returned %d, want the displaced value 5", got)
	}
	e2 := NewEngine()
	e2.Schedule(0, func() {})
	e2.Run()
	if e2.BudgetExceeded() {
		t.Fatal("restored default still bounding new engines")
	}
}

// TestLoweringBudgetBelowFiredStops: a budget a handler lowers below the
// fired count makes Run return right after that handler, with the run-end
// hooks called; lifting the budget lets the next Run resume in (time, seq)
// order — events of the stopping handler's own batch included.
func TestLoweringBudgetBelowFiredStops(t *testing.T) {
	e := NewEngine()
	var got []string
	ends := 0
	e.AddRunEndHook(func() { ends++ })
	note := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	e.Post(10, note("a"))
	e.Post(20, func() {
		note("stop")()
		e.SetEventBudget(e.Fired() - 1) // already over
		e.Post(20, note("d"))
		e.Post(25, note("e"))
	})
	e.Post(20, note("b"))
	e.Post(30, note("c"))
	e.Run()
	if want := "[a@10 stop@20]"; fmt.Sprint(got) != want || ends != 1 || !e.BudgetExceeded() {
		t.Fatalf("fired %v, %d run ends, exceeded %v; want %s, 1, true", got, ends, e.BudgetExceeded(), want)
	}
	if e.Now() != 20 || e.Pending() != 4 {
		t.Fatalf("stopped at %v with %d pending, want 20ps with 4", e.Now(), e.Pending())
	}
	e.SetEventBudget(0)
	e.Run()
	if want := "[a@10 stop@20 b@20 d@20 e@25 c@30]"; fmt.Sprint(got) != want || ends != 2 {
		t.Fatalf("resumed to %v with %d run ends, want %s and 2", got, ends, want)
	}
}
