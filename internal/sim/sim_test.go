package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineDispatchOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.PostAfter(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative PostAfter did not panic")
		}
	}()
	e.PostAfter(-1, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel and nil-cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []*Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(10+i), func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", e.Fired())
	}
}

// Property: for any set of times, events dispatch in sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, tm := range times {
			at := Time(tm)
			e.Schedule(at, func() { got = append(got, at) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v, want 2.0", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v, want 0.5", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced stuck-at-zero sequence")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGInt63NonNegative(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.Schedule(Time(j), func() {})
		}
		e.Run()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// Cancel/step interleavings: the queue must stay consistent when events are
// canceled between, during, and after dispatches.

// stepOnce runs the engine for at most one event, through a budget stop, and
// reports whether one fired.
func stepOnce(e *Engine) bool {
	fired := e.Fired()
	e.SetEventBudget(fired + 1)
	e.Run()
	e.SetEventBudget(0)
	return e.Fired() > fired
}

func TestEngineCancelFromInsideCallback(t *testing.T) {
	e := NewEngine()
	var fired []string
	var b *Event
	e.Schedule(10, func() {
		fired = append(fired, "a")
		e.Cancel(b) // cancel a same-time sibling mid-dispatch
	})
	b = e.Schedule(10, func() { fired = append(fired, "b") })
	e.Schedule(10, func() { fired = append(fired, "c") })
	e.Run()
	if got := len(fired); got != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Errorf("fired %v, want [a c]", fired)
	}
	if e.Fired() != 2 {
		t.Errorf("Fired = %d, want 2 (dead events are not dispatches)", e.Fired())
	}
}

func TestEngineCancelHeadThenStep(t *testing.T) {
	e := NewEngine()
	ran := false
	head := e.Schedule(5, func() { t.Error("canceled head fired") })
	e.Schedule(7, func() { ran = true })
	e.Cancel(head)
	if !stepOnce(e) {
		t.Fatal("stepOnce found no live event")
	}
	if !ran || e.Now() != 7 {
		t.Errorf("ran=%v now=%v, want true 7ps", ran, e.Now())
	}
	if stepOnce(e) {
		t.Error("stepOnce dispatched from an empty queue")
	}
}

func TestEngineCancelAllThenStep(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 4; i++ {
		evs = append(evs, e.Schedule(Time(i+1), func() { t.Error("canceled event fired") }))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if stepOnce(e) {
		t.Error("stepOnce reported progress with only dead events queued")
	}
	if e.Now() != 0 || e.Fired() != 0 {
		t.Errorf("now=%v fired=%d after draining dead events", e.Now(), e.Fired())
	}
}

func TestEngineCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	later := false
	e.Schedule(2, func() { later = true })
	stepOnce(e)
	e.Cancel(a) // already fired
	e.Cancel(a) // double cancel
	e.Cancel(nil)
	e.Run()
	if !later {
		t.Error("cancel of a fired event disturbed the queue")
	}
}

func TestEngineCancelAndRescheduleInterleaved(t *testing.T) {
	// A canceled slot replaced by a new event at the same time must fire in
	// insertion order relative to survivors, deterministically.
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	dead := e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(10, func() { order = append(order, 3) })
	e.Cancel(dead)
	e.Schedule(10, func() { order = append(order, 4) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 4 {
		t.Errorf("order = %v, want [1 3 4]", order)
	}
}

func TestEngineDispatchHook(t *testing.T) {
	e := NewEngine()
	type obs struct {
		at      Time
		pending int
		fired   uint64
	}
	var seen []obs
	e.AddDispatchHook(func(at Time, pending int, fired uint64) {
		seen = append(seen, obs{at, pending, fired})
	})
	e.AddDispatchHook(nil) // ignored
	e.Schedule(10, func() {})
	dead := e.Schedule(20, func() {})
	e.Schedule(30, func() {})
	e.Cancel(dead)
	e.Run()
	want := []obs{{10, 1, 1}, {30, 0, 2}}
	if len(seen) != len(want) {
		t.Fatalf("hook fired %d times: %v", len(seen), seen)
	}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("hook call %d = %+v, want %+v", i, seen[i], w)
		}
	}
}

// Run-end hooks fire once per Run return, whether the queue drained or a
// handler's budget stop ended it, and see everything that call dispatched.
func TestEngineRunEndHook(t *testing.T) {
	e := NewEngine()
	var firedAtEnd []uint64
	e.AddRunEndHook(func() { firedAtEnd = append(firedAtEnd, e.Fired()) })
	e.AddRunEndHook(nil) // ignored
	for i := 1; i <= 6; i++ {
		e.Schedule(Time(i*10), func() {})
	}
	stop := func() { e.SetEventBudget(e.Fired()) }
	e.Post(25, stop)
	e.Post(45, stop)
	e.Run()             // t=10, 20, then the stop at 25
	e.SetEventBudget(0) // resume
	e.Run()             // t=30, 40, then the stop at 45
	e.SetEventBudget(0)
	e.Run() // t=50, 60: drained
	e.Run() // nothing to do, still one call
	want := []uint64{3, 6, 8, 8}
	if len(firedAtEnd) != len(want) {
		t.Fatalf("hook calls saw %v, want %v", firedAtEnd, want)
	}
	for i := range want {
		if firedAtEnd[i] != want[i] {
			t.Errorf("hook calls saw %v, want %v", firedAtEnd, want)
			break
		}
	}
}

func TestEngineDispatchHookSeesScheduleFromCallback(t *testing.T) {
	// Events scheduled by a callback count toward pending on later hook
	// calls — the hook observes the queue depth after the pop, before fn.
	e := NewEngine()
	var pendings []int
	e.AddDispatchHook(func(_ Time, pending int, _ uint64) { pendings = append(pendings, pending) })
	e.Schedule(1, func() { e.PostAfter(1, func() {}) })
	e.Run()
	if len(pendings) != 2 || pendings[0] != 0 || pendings[1] != 0 {
		t.Errorf("pendings = %v, want [0 0]", pendings)
	}
}
