package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// scheduler is what the differential tests drive: the Engine's scheduling
// surface, which the reference heap below implements too.
type scheduler interface {
	Now() Time
	Pending() int
	Schedule(at Time, fn func()) *Event
	Post(at Time, fn func())
	Cancel(ev *Event)
	Run()
	RunUntil(deadline Time)
}

// refHeap is the differential oracle for the timing wheel: the scheduler
// the wheel replaced, a plain binary heap ordered by (timestamp, sequence)
// with eager removal on cancel. It is the ordering contract written down
// in the most obvious way, and exists only for the wheel to be compared
// against.
type refHeap struct {
	now   Time
	seq   uint64
	queue eventHeap
}

func (r *refHeap) Now() Time    { return r.now }
func (r *refHeap) Pending() int { return len(r.queue) }

func (r *refHeap) Schedule(at Time, fn func()) *Event {
	if at < r.now {
		panic(fmt.Sprintf("refHeap: schedule at %v before now %v", at, r.now))
	}
	ev := &Event{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refHeap) Post(at Time, fn func()) { r.Schedule(at, fn) }

func (r *refHeap) Cancel(ev *Event) {
	if !ev.dead && ev.idx >= 0 {
		heap.Remove(&r.queue, ev.idx)
	}
	ev.dead = true
}

func (r *refHeap) Run() { r.drain(Forever) }

func (r *refHeap) RunUntil(deadline Time) {
	r.drain(deadline)
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refHeap) drain(deadline Time) {
	for len(r.queue) > 0 && r.queue[0].at <= deadline {
		ev := heap.Pop(&r.queue).(*Event)
		r.now = ev.at
		ev.fn()
	}
}

// sameTrace fails the test unless the wheel and the reference heap
// dispatched the same events at the same times in the same order.
func sameTrace(t *testing.T, what string, heapTrace, wheelTrace []string) {
	t.Helper()
	if len(heapTrace) != len(wheelTrace) {
		t.Fatalf("%s: heap fired %d events, wheel %d", what, len(heapTrace), len(wheelTrace))
	}
	for i := range heapTrace {
		if heapTrace[i] != wheelTrace[i] {
			t.Fatalf("%s: dispatch %d diverged: heap %q wheel %q", what, i, heapTrace[i], wheelTrace[i])
		}
	}
}

// TestWheelHeapEquivalence drives the timing wheel and the reference heap
// with the same randomized workload — bursty timestamps spanning all
// wheel levels and the far-future overflow, same-time ties, cancels, and
// callback-scheduled events — and demands identical dispatch traces.
// This is the unit-level half of the ordering contract; the committed
// experiment goldens pin its consequences end to end.
func TestWheelHeapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		trace := func(e scheduler) []string {
			rng := NewRNG(uint64(seed))
			var got []string
			var evs []*Event
			id := 0
			schedule := func(base Time) {
				id++
				n := id
				// Span slot boundaries, levels, and the wheel horizon.
				var d Time
				switch rng.Intn(6) {
				case 0:
					d = 0 // exact tie
				case 1:
					d = Time(rng.Intn(256))
				case 2:
					d = Time(rng.Intn(1 << 16))
				case 3:
					d = Time(rng.Intn(1 << 24))
				case 4:
					d = Time(rng.Int63() % (1 << 33)) // beyond the wheel span
				case 5:
					d = Time(rng.Intn(3)) * (1 << 16) // window edges
				}
				at := base + d
				if rng.Intn(3) == 0 {
					e.Post(at, func() { got = append(got, fmt.Sprintf("p%d@%d", n, e.Now())) })
				} else {
					evs = append(evs, e.Schedule(at, func() { got = append(got, fmt.Sprintf("s%d@%d", n, e.Now())) }))
				}
			}
			for i := 0; i < 200; i++ {
				schedule(0)
			}
			for i := 0; i < 40; i++ {
				e.Cancel(evs[rng.Intn(len(evs))])
			}
			// A slice of events reschedule more work from inside callbacks.
			for i := 0; i < 30; i++ {
				at := Time(rng.Intn(1 << 20))
				e.Schedule(at, func() {
					for j := 0; j < 3; j++ {
						schedule(e.Now())
					}
					if len(evs) > 0 {
						e.Cancel(evs[rng.Intn(len(evs))])
					}
				})
			}
			e.Run()
			return got
		}
		sameTrace(t, fmt.Sprintf("seed %d", seed), trace(&refHeap{}), trace(NewEngine()))
	}
}

// FuzzWheelOps lets the fuzzer write the workload: the input is a program
// of schedule / post / cancel / run-until / schedule-from-a-callback
// opcodes, each with a delay whose magnitude the input picks anywhere from
// an exact tie to far beyond the wheel span. The wheel and the reference
// heap run the same program and must produce identical dispatch traces,
// clocks and pending counts.
func FuzzWheelOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 8, 3, 2, 0, 0, 3, 9, 0, 4, 33, 1, 4, 40, 0xff, 2, 1, 0, 3, 36, 7})
	f.Add([]byte{1, 32, 1, 0, 32, 1, 4, 31, 2, 3, 31, 1, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		trace := func(e scheduler, prog []byte) []string {
			var got []string
			var evs []*Event
			id := 0
			fire := func() func() {
				id++
				n := id
				return func() { got = append(got, fmt.Sprintf("%d@%d", n, e.Now())) }
			}
			for ; len(prog) >= 3; prog = prog[3:] {
				// 255<<35 ps crosses the 2^32 ps wheel span many times over
				// without ever overflowing Time.
				d := Time(prog[2]) << (prog[1] % 36)
				switch prog[0] % 5 {
				case 0:
					evs = append(evs, e.Schedule(e.Now()+d, fire()))
				case 1:
					e.Post(e.Now()+d, fire())
				case 2:
					if len(evs) > 0 {
						e.Cancel(evs[int(prog[1])%len(evs)])
					}
				case 3:
					e.RunUntil(e.Now() + d)
					got = append(got, fmt.Sprintf("until@%d pending=%d", e.Now(), e.Pending()))
				case 4: // fires, then schedules a follower d later (d = 0: same batch)
					first, then := fire(), fire()
					evs = append(evs, e.Schedule(e.Now()+d, func() {
						first()
						evs = append(evs, e.Schedule(e.Now()+d, then))
					}))
				}
			}
			e.Run()
			return append(got, fmt.Sprintf("end@%d pending=%d", e.Now(), e.Pending()))
		}
		sameTrace(t, "program", trace(&refHeap{}, prog), trace(NewEngine(), prog))
	})
}

// TestWheelFarFutureOrdering crosses the 2^32 ps wheel horizon several
// times with interleaved near and far events sharing timestamps.
func TestWheelFarFutureOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	span := Time(1) << wheelSpanBits
	times := []Time{10, span - 1, span, span + 5, 3 * span, 3*span + 5, 3*span + 5, 10 * span}
	for i, at := range times {
		i := i
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("far-future dispatch order %v, want identity", got)
		}
	}
	if e.Now() != 10*span {
		t.Fatalf("Now = %v, want %v", e.Now(), 10*span)
	}
}

// TestWheelFarFutureTieWithLateSchedule pins the migration ordering
// argument: a far-future event scheduled first (lower sequence) must fire
// before a same-timestamp event scheduled later from inside a callback
// (higher sequence, direct wheel insert).
func TestWheelFarFutureTieWithLateSchedule(t *testing.T) {
	e := NewEngine()
	span := Time(1) << wheelSpanBits
	target := 2*span + 7
	var got []string
	e.Schedule(target, func() { got = append(got, "far-first") })
	e.Schedule(span+1, func() {
		e.Schedule(target, func() { got = append(got, "near-second") })
	})
	e.Run()
	if len(got) != 2 || got[0] != "far-first" || got[1] != "near-second" {
		t.Fatalf("got %v, want [far-first near-second]", got)
	}
}

// TestPostOrderingMatchesSchedule: Post draws from the same sequence
// counter, so same-timestamp Post and Schedule calls interleave in call
// order.
func TestPostOrderingMatchesSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Post(10, func() { got = append(got, 0) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Post(10, func() { got = append(got, 2) })
	e.PostAfter(10, func() { got = append(got, 3) })
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("order %v, want identity", got)
		}
	}
}

// TestPostRecyclesEvents: the handle-free path reuses event objects, and
// recycled events must not resurrect stale cancel state.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	var step func()
	step = func() {
		fired++
		if fired < 1000 {
			e.PostAfter(Nanosecond, step)
		}
	}
	e.Post(0, step)
	e.Run()
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestScheduleHandleSafeAfterRecycles: a Schedule handle canceled long
// after it fired — with pooled events having churned through the free
// list meanwhile — must stay a no-op (retained events never enter the
// pool).
func TestScheduleHandleSafeAfterRecycles(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	for i := 2; i < 100; i++ {
		e.Post(Time(i), func() {})
	}
	e.Run()
	survived := false
	e.Post(200, func() { survived = true })
	e.Cancel(h) // fired long ago; must not kill the pooled event above
	e.Run()
	if !survived {
		t.Fatal("late Cancel of a fired handle reached an unrelated pooled event")
	}
}

// TestWheelCancelFarFuture cancels events parked in the overflow heap.
func TestWheelCancelFarFuture(t *testing.T) {
	e := NewEngine()
	span := Time(1) << wheelSpanBits
	ev := e.Schedule(2*span, func() { t.Error("canceled far event fired") })
	ok := false
	e.Schedule(2*span+1, func() { ok = true })
	e.Cancel(ev)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !ok {
		t.Fatal("live far event did not fire")
	}
}

// TestRunUntilDoesNotStrandCursor: peeking past a deadline must not
// misfile events scheduled afterwards at times between the deadline and
// the peeked event.
func TestRunUntilDoesNotStrandCursor(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(100000, func() { got = append(got, e.Now()) })
	e.RunUntil(50) // peeks 100000, dispatches nothing
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	e.Schedule(60, func() { got = append(got, e.Now()) })
	e.Schedule(300, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{60, 300, 100000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestRunUntilAfterCancelAllBeforeDeadline: dead events ahead of the
// deadline are pruned without dispatching anything beyond it.
func TestRunUntilAfterCancelAllBeforeDeadline(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(10, func() { t.Error("canceled event fired") })
	fired := false
	e.Schedule(1000, func() { fired = true })
	e.Cancel(a)
	e.RunUntil(100)
	if fired {
		t.Fatal("event beyond the deadline fired")
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("pending event lost")
	}
}

// TestDispatchAllocsSteadyState pins the tentpole claim at the engine
// layer: once the free list is warm, posting and dispatching events
// allocates nothing.
func TestDispatchAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n%1000 != 0 {
			e.PostAfter(Nanosecond, step)
		}
	}
	// Warm the free list and code paths.
	e.Post(0, step)
	e.Run()
	allocs := testing.AllocsPerRun(10, func() {
		e.Post(e.Now(), step)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("engine dispatch allocates %.1f objects per 1000-event run, want 0", allocs)
	}
}

func BenchmarkEngineWheelPost(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var step func()
	n := 0
	step = func() {
		n++
		if n%8 != 0 {
			e.PostAfter(Nanosecond, step)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(e.Now(), step)
		e.Run()
	}
}
