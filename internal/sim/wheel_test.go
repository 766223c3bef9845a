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
	PostHandler(at Time, h Handler)
	Cancel(ev *Event)
	Arm(t *Timer, at Time, h Handler)
	Disarm(t *Timer)
	Reserve() uint64
	ArmReserved(t *Timer, at Time, seq uint64, h Handler)
	Run()
}

// refHeap is the differential oracle for the timing wheel: the scheduler
// the wheel replaced, a plain binary heap ordered by (timestamp, sequence)
// with eager removal on cancel. It is the ordering contract written down
// in the most obvious way, and exists only for the wheel to be compared
// against. Every way of queueing an event — a posted function, a posted
// handler, a handle, a timer — is one push with the next sequence number; a
// ticket is the number drawn now and the push made later.
type refHeap struct {
	now      Time
	seq      uint64
	minSeq   uint64 // one past the number of the event being fired
	reserved int
	queue    eventHeap
}

func (r *refHeap) Now() Time    { return r.now }
func (r *refHeap) Pending() int { return len(r.queue) + r.reserved }

func (r *refHeap) push(ev *Event, at Time, h Handler) {
	if at < r.now {
		panic(fmt.Sprintf("refHeap: schedule at %v before now %v", at, r.now))
	}
	r.pushSeq(ev, at, r.seq, h)
	r.seq++
}

func (r *refHeap) pushSeq(ev *Event, at Time, seq uint64, h Handler) {
	if ev.queued {
		panic("refHeap: event already queued")
	}
	ev.at, ev.seq, ev.h = at, seq, h
	ev.queued, ev.dead = true, false
	heap.Push(&r.queue, ev)
}

func (r *refHeap) Reserve() uint64 {
	r.seq++
	r.reserved++
	return r.seq - 1
}

func (r *refHeap) ArmReserved(t *Timer, at Time, seq uint64, h Handler) {
	if at < r.now || at == r.now && seq < r.minSeq {
		panic("refHeap: ticket armed behind the event being fired")
	}
	r.reserved--
	r.pushSeq(&t.ev, at, seq, h)
}

func (r *refHeap) Schedule(at Time, fn func()) *Event {
	ev := &Event{}
	r.push(ev, at, Func(fn))
	return ev
}

func (r *refHeap) Post(at Time, fn func())          { r.push(&Event{}, at, Func(fn)) }
func (r *refHeap) PostHandler(at Time, h Handler)   { r.push(&Event{}, at, h) }
func (r *refHeap) Arm(t *Timer, at Time, h Handler) { r.push(&t.ev, at, h) }
func (r *refHeap) Disarm(t *Timer)                  { r.Cancel(&t.ev) }

func (r *refHeap) Cancel(ev *Event) {
	if ev.queued {
		heap.Remove(&r.queue, int(ev.idx))
		ev.queued = false
	}
	ev.dead = true
}

func (r *refHeap) Run() {
	for len(r.queue) > 0 {
		ev := heap.Pop(&r.queue).(*Event)
		ev.queued = false
		r.now, r.minSeq = ev.at, ev.seq+1
		ev.h.Fire()
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

// traceRec is a handler record as a model would write one: the event's
// state lives in the record, and posting the record allocates no closure.
type traceRec struct {
	id   int
	now  func() Time
	into *[]string
}

func (r *traceRec) Fire() { *r.into = append(*r.into, fmt.Sprintf("h%d@%d", r.id, r.now())) }

// fuzzTimer is one caller-owned timer of the fuzz program together with
// what the program knows about it. pending is set by arming and cleared by
// the timer's own handler or a disarm. A disarmed timer is kept if it is
// Idle and retired otherwise: the wheel keeps a canceled event linked until
// the clock reaches it (Arm would panic) while the oracle removes it at
// once, and the program must not depend on which of the two is running it.
type fuzzTimer struct {
	t       *Timer
	pending bool
	rearm   Time // when positive, the handler re-arms the timer once, this much later
	e       scheduler
	id      int
	into    *[]string
}

func (ft *fuzzTimer) Fire() {
	ft.pending = false
	*ft.into = append(*ft.into, fmt.Sprintf("t%d@%d", ft.id, ft.e.Now()))
	if d := ft.rearm; d > 0 {
		ft.rearm = 0
		ft.pending = true
		ft.e.Arm(ft.t, ft.e.Now()+d, ft)
	}
}

// FuzzWheelOps lets the fuzzer write the workload: the input is a program
// of schedule / post / cancel / run / schedule-from-a-callback /
// post-a-handler / arm / disarm / arm-with-re-arm-after-fire / reserve /
// arm-reserved-later opcodes, each with a delay whose magnitude the input
// picks anywhere from an exact tie to far beyond the wheel span. The wheel
// and the reference heap run the same program and must produce identical
// dispatch traces, clocks and pending counts (after every step), and must
// refuse the same tickets: one armed at or behind the event that arms it
// is noted in the trace and armed again a picosecond later.
func FuzzWheelOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 8, 3, 2, 0, 0, 3, 9, 0, 4, 33, 1, 4, 40, 0xff, 2, 1, 0, 3, 36, 7})
	f.Add([]byte{1, 32, 1, 0, 32, 1, 4, 31, 2, 3, 31, 1, 1, 0, 0, 2, 0, 0})
	// Handler posts tied with function posts; a timer armed, fired and armed
	// again; one disarmed while pending; one that re-arms from its handler.
	f.Add([]byte{5, 0, 4, 1, 0, 4, 6, 0, 9, 3, 0, 20, 6, 0, 9, 7, 0, 0, 6, 1, 5, 7, 1, 0, 6, 1, 5, 8, 2, 3, 5, 34, 1, 6, 34, 2, 3, 35, 9})
	// Tickets: one armed for a slot that already holds a later number; one
	// armed into the batch being fired, ahead of a post made after it; one
	// left for the closing carriers, which are refused; one in a far window.
	f.Add([]byte{9, 0, 0, 1, 0, 20, 10, 36, 10, 1, 0, 20})
	f.Add([]byte{10, 0, 5, 9, 0, 0, 1, 0, 5, 9, 0, 0, 0, 0, 5})
	f.Add([]byte{9, 0, 0, 1, 16, 3, 10, 52, 3, 9, 0, 0, 3, 8, 1, 9, 0, 0, 10, 69, 1, 1, 33, 1})
	// A run that drains through a canceled far event moves the cursor to its
	// window; a post made after it lands behind that window and must still
	// fire (popWheel rewinds the cursor to the clock).
	f.Add([]byte{0, 20, 200, 2, 0, 0, 3, 0, 0, 1, 8, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		trace := func(e scheduler, prog []byte) []string {
			var got []string
			var evs []*Event
			var timers [4]fuzzTimer
			for i := range timers {
				timers[i] = fuzzTimer{t: &Timer{}, e: e, id: i, into: &got}
			}
			var tickets []uint64 // reserved, not armed yet
			carriers := 0        // posted, not fired yet
			id := 0
			fire := func() func() {
				id++
				n := id
				return func() { got = append(got, fmt.Sprintf("%d@%d", n, e.Now())) }
			}
			// carrier returns an event's work: arm the oldest ticket there is
			// when it fires, later after its own time (0: in its own batch).
			carrier := func(later Time) func() {
				id++
				carriers++
				rec := &traceRec{id: id, now: e.Now, into: &got}
				return func() {
					carriers--
					if len(tickets) == 0 {
						return
					}
					seq, tm := tickets[0], &Timer{}
					tickets = tickets[1:]
					defer func() {
						if recover() != nil {
							got = append(got, fmt.Sprintf("late%d@%d", rec.id, e.Now()))
							e.ArmReserved(tm, e.Now()+1, seq, rec)
						}
					}()
					e.ArmReserved(tm, e.Now()+later, seq, rec)
				}
			}
			// Run must not find a ticket nobody will arm. These carriers are
			// posted behind the tickets they take, so each is refused once.
			carryTickets := func() {
				for carriers < len(tickets) {
					e.Post(e.Now(), carrier(0))
				}
			}
			arm := func(ft *fuzzTimer, d, rearm Time) {
				if ft.pending {
					return
				}
				ft.pending, ft.rearm = true, rearm
				e.Arm(ft.t, e.Now()+d, ft)
			}
			for ; len(prog) >= 3; prog = prog[3:] {
				// 255<<35 ps crosses the 2^32 ps wheel span many times over
				// without ever overflowing Time.
				d := Time(prog[2]) << (prog[1] % 36)
				ft := &timers[int(prog[1])%len(timers)]
				switch prog[0] % 11 {
				case 0:
					evs = append(evs, e.Schedule(e.Now()+d, fire()))
				case 1:
					e.Post(e.Now()+d, fire())
				case 2:
					if len(evs) > 0 {
						e.Cancel(evs[int(prog[1])%len(evs)])
					}
				case 3:
					carryTickets()
					e.Run()
					got = append(got, fmt.Sprintf("run@%d pending=%d", e.Now(), e.Pending()))
				case 4: // fires, then schedules a follower d later (d = 0: same batch)
					first, then := fire(), fire()
					evs = append(evs, e.Schedule(e.Now()+d, func() {
						first()
						evs = append(evs, e.Schedule(e.Now()+d, then))
					}))
				case 5:
					id++
					e.PostHandler(e.Now()+d, &traceRec{id: id, now: e.Now, into: &got})
				case 6: // arm; on a timer that has fired this reuses its event
					arm(ft, d, 0)
				case 7:
					e.Disarm(ft.t)
					if ft.pending && !ft.t.Idle() {
						ft.t = &Timer{} // retired, see fuzzTimer
					}
					ft.pending = false
				case 8: // arm a timer whose handler arms it again d+1 later
					arm(ft, d, d+1)
				case 9:
					tickets = append(tickets, e.Reserve())
				case 10: // arm-reserved-later: at the carrier's own time, or d after it
					e.Post(e.Now()+d, carrier(d*Time(prog[1]/36%2)))
				}
				got = append(got, fmt.Sprintf("pending=%d", e.Pending()))
				// Idle is what arm relies on: false exactly while pending.
				for i := range timers {
					if timers[i].t.Idle() == timers[i].pending {
						t.Fatalf("timer %d: Idle %v with pending %v", i, timers[i].t.Idle(), timers[i].pending)
					}
				}
			}
			carryTickets()
			e.Run()
			return append(got, fmt.Sprintf("end@%d pending=%d", e.Now(), e.Pending()))
		}
		sameTrace(t, "program", trace(&refHeap{}, prog), trace(NewEngine(), prog))
	})
}

// TestTimerArmDisarm: a timer is a Schedule handle without the allocation
// — it fires once per Arm, not at all once disarmed, and shares Schedule's
// sequence numbers and pending count.
func TestTimerArmDisarm(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) Func { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	var a, b Timer
	e.Post(10, note("post"))
	e.Arm(&a, 10, note("a"))
	e.Schedule(10, note("sched"))
	e.Arm(&b, 20, note("b"))
	if !a.Armed() || !b.Armed() || e.Pending() != 4 {
		t.Fatalf("armed %v %v, pending %d; want both armed, 4 pending", a.Armed(), b.Armed(), e.Pending())
	}
	e.Disarm(&b)
	e.Disarm(&b) // twice is once
	if b.Armed() || e.Pending() != 3 {
		t.Fatalf("after Disarm: armed %v, pending %d; want disarmed, 3 pending", b.Armed(), e.Pending())
	}
	e.Run()
	if a.Armed() {
		t.Fatal("a fired timer still reports Armed")
	}
	e.Disarm(&a) // after the fact: a no-op that must not block the next Arm
	e.Arm(&a, 30, note("a-again"))
	e.Arm(&b, 30, note("b-again")) // b's canceled event was passed at 20
	e.Run()
	want := []string{"post@10", "a@10", "sched@10", "a-again@30", "b-again@30"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	var never Timer
	e.Disarm(&never) // zero value: nothing to cancel, and the count must not move
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after disarming a timer that was never armed", e.Pending())
	}
}

// TestTimerIdle: Idle is false from Arm until the timer fires (its handler
// sees it idle, and may arm it again), and after a Disarm until the engine
// drops the canceled event — at the latest when the clock reaches its
// deadline — at every wheel level and past the wheel span. Arm succeeds
// once it is true (TestArmQueuedTimerPanics: and panics while it is false).
func TestTimerIdle(t *testing.T) {
	for _, d := range []Time{0, 1, 300, 70_000, 1 << 30, 1 << 40} {
		e := NewEngine()
		var tm Timer
		if !tm.Idle() {
			t.Fatal("a zero timer is not idle")
		}
		e.Arm(&tm, d, Func(func() {
			if !tm.Idle() {
				t.Errorf("d=%v: a firing timer is not idle", d)
			}
		}))
		if tm.Idle() {
			t.Fatalf("d=%v: an armed timer is idle", d)
		}
		e.Run()
		if !tm.Idle() {
			t.Fatalf("d=%v: a fired timer is not idle", d)
		}
		at := e.Now() + d + 1
		e.Arm(&tm, at, Func(func() { t.Errorf("d=%v: a disarmed timer fired", d) }))
		e.Disarm(&tm)
		if tm.Idle() {
			t.Fatalf("d=%v: a timer disarmed before its deadline is idle", d)
		}
		e.Post(at, func() {
			if !tm.Idle() {
				t.Errorf("d=%v: a timer disarmed for %v is not idle at %v", d, at, e.Now())
			}
			e.Arm(&tm, at+d, Func(func() {}))
		})
		e.Run()
	}
}

// TestReservedTicket: an event armed under a ticket fires where a Post made
// at the Reserve would have and counts as pending from the Reserve on; a
// ticket armed at or behind the event that arms it panics, and so does a
// Run that finds one nobody armed.
func TestReservedTicket(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) Func { return func() { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) } }
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return
	}
	var a, b Timer
	e.Post(5, func() { e.ArmReserved(&a, 20, 1, note("a")) })
	sa, sb := e.Reserve(), e.Reserve()
	e.Post(20, note("post"))
	e.Post(20, func() {
		if !panics(func() { e.ArmReserved(&b, 20, sb, note("b")) }) {
			t.Error("a ticket armed behind the event being dispatched did not panic")
		}
	})
	if sa != 1 || sb != 2 || e.Pending() != 5 {
		t.Fatalf("tickets %d %d, pending %d; want 1 2, 5 pending", sa, sb, e.Pending())
	}
	if !panics(e.Run) {
		t.Error("Run drained the queue with a ticket outstanding and did not panic")
	}
	if want := "[a@20 post@20]"; fmt.Sprint(got) != want || e.Pending() != 1 {
		t.Fatalf("fired %v with %d pending, want %s with 1 pending", got, e.Pending(), want)
	}
}

// TestArmQueuedTimerPanics: the timer's one event cannot be in the queue
// twice, whether it is still pending or canceled and not yet reached.
func TestArmQueuedTimerPanics(t *testing.T) {
	for _, disarmFirst := range []bool{false, true} {
		e := NewEngine()
		var tm Timer
		e.Arm(&tm, 100, Func(func() {}))
		if disarmFirst {
			e.Disarm(&tm)
		}
		if tm.Idle() {
			t.Errorf("a queued timer (disarmed first: %v) reports Idle", disarmFirst)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Arm on a queued timer (disarmed first: %v) did not panic", disarmFirst)
				}
			}()
			e.Arm(&tm, 200, Func(func() {}))
		}()
	}
}

type countRec struct{ fired int }

func (r *countRec) Fire() { r.fired++ }

// TestTimerAndHandlerAllocs: a handler post and a timer's arm-fire cycle
// allocate nothing once the free list is warm, and Post's func() wrapper
// costs nothing either.
func TestTimerAndHandlerAllocs(t *testing.T) {
	e := NewEngine()
	rec := &countRec{}
	var tm Timer
	fn := func() {}
	round := func() {
		e.PostHandler(e.Now()+1, rec)
		e.Post(e.Now()+1, fn)
		e.Arm(&tm, e.Now()+2, rec)
		e.Run()
		e.Arm(&tm, e.Now()+2, rec)
		e.Disarm(&tm)
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a handler post, a func post and two timer cycles allocate %.1f objects, want 0", allocs)
	}
}

// TestPostRefillsInChunks: a burst posted into a fresh engine costs a
// handful of chunk allocations rather than one per event.
func TestPostRefillsInChunks(t *testing.T) {
	const burst = 6144 // an agg-saturated round
	fn := func() {}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < burst; i++ {
			e.Post(Time(i), fn)
		}
		e.Run()
	})
	// The engine itself, then chunks of 16, 32, … 512, 512, …
	if want := float64(1 + 5 + (burst-496+511)/512); allocs > want {
		t.Fatalf("posting %d events into a fresh engine allocates %.0f objects, want at most %.0f", burst, allocs, want)
	}
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
