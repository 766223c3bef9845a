// Package sim provides a deterministic discrete-event simulation engine.
//
// All switch and network models in this repository are driven by a single
// Engine: components schedule events at absolute simulated times (measured
// in integer picoseconds so that clock periods such as 1/1.62 GHz remain
// exactly representable as integers), and the engine dispatches them in
// time order.
//
// # Ordering contract
//
// Dispatch order is the lexicographic order of (timestamp, sequence):
// events fire in nondecreasing timestamp order, and events sharing a
// timestamp fire in the order they were scheduled (each Schedule/Post call
// draws a monotonically increasing sequence number). This tie-break is a
// hard contract, not an implementation detail — every golden-pinned
// experiment output, the chaos soak, and the kill-resume identity depend
// on it — so any replacement queue must be ordering-equivalent to a
// stable (timestamp, sequence) sort, not merely approximately sorted.
//
// # Queue implementation
//
// The scheduler is a hierarchical timing wheel: four levels of 256 slots
// each, indexed by successive bytes of the absolute timestamp, with
// per-level occupancy bitmaps and intrusive singly-linked slot lists.
// Near events (within 2^32 ps ≈ 4.3 ms of the cursor) go directly into
// the wheel; far-future events overflow into a small binary heap and
// migrate into the wheel when the cursor reaches their 2^32 ps window.
// A level-0 slot holds events of a single exact timestamp ordered by
// sequence, and Run dispatches such same-timestamp batches through one flat
// loop. Every event reaches level 0 before it fires, so that is where order
// is settled: a higher-level slot appends at the tail, a level-0 slot
// inserts by sequence. For an event that draws its number as it is queued
// the insert is an append behind one compare; it is a search only for a
// ticket (Reserve, ArmReserved), which is queued under a number drawn
// earlier. Events posted through the handle-free path are free-listed and
// recycled at dispatch, so steady-state dispatch allocates nothing.
//
// The ordering contract is checked against a reference binary heap kept
// beside the tests (wheel_test.go: TestWheelHeapEquivalence and
// FuzzWheelOps demand identical dispatch traces).
//
// # Handlers and timers
//
// What an event does when it fires is a Handler, a one-method interface.
// A model that would otherwise build a closure per event keeps the state
// the event needs in a record of its own, gives the record a Fire method
// and posts the record (PostHandler): a pointer converts to an interface
// without allocating. Post, Schedule and After take a plain func() and wrap
// it in Func, which is free as well — a func value is pointer-shaped.
//
// There are three ways to queue an event, and they differ only in who owns
// the Event object; all draw from the same sequence counter and the same
// pending count, so they interleave in call order (a ticket's call is its
// Reserve, not its ArmReserved):
//
//   - Post / PostHandler: the engine owns it, takes it from a free list
//     that is refilled a chunk at a time, and recycles it at dispatch. It
//     cannot be canceled.
//   - Schedule: the caller gets a handle to Cancel. The handle is never
//     recycled, so it costs one allocation per call; use it for the few
//     events of a run (a crash, a promotion), not for one per packet.
//   - Timer: the caller owns the event, embedded by value in whatever
//     record the timer belongs to (a sender's retransmission state, a
//     replication pair). Arm queues it, Disarm cancels it, and arming it
//     again once it has fired reuses the same memory, so a cancellable
//     per-packet timer allocates nothing.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is an absolute simulated time in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel time later than any schedulable event.
const Forever Time = math.MaxInt64

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is what an event does when it fires.
type Handler interface {
	Fire()
}

// Func adapts a plain function to Handler. The conversion allocates
// nothing: a func value is a pointer, and so is stored in the interface
// as it is.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a scheduled callback. Its zero value is an event that is not
// queued and not canceled.
type Event struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	h    Handler
	next *Event // intrusive slot-list link / free-list link
	idx  int32  // position in the far-future overflow heap, -1 once popped

	// queued is set while the event is linked into a wheel slot or the far
	// heap, canceled or not: a canceled event stays linked until the
	// cursor reaches it.
	queued bool
	dead   bool

	// retained marks events the engine does not own — Schedule handles and
	// Timers: they are never recycled into the free list, so a late Cancel
	// on an already-fired handle can never reach an unrelated pooled event.
	retained bool
}

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.dead }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = int32(len(*h))
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots, each
// level indexed by one byte of the absolute timestamp. The wheel spans
// 2^wheelSpanBits ps from the cursor; anything further overflows to the
// far heap.
const (
	wheelLevels   = 4
	wheelBits     = 8
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelSpanBits = wheelLevels * wheelBits
)

// slot is one timing-wheel bucket: an intrusive list of events, in filing
// order above level 0 and in sequence order at level 0 (see place).
type slot struct {
	head, tail *Event
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. Engine is not safe for concurrent use; all models in this repository
// are single-goroutine by design so that runs are reproducible.
type Engine struct {
	now     Time
	seq     uint64
	minSeq  uint64 // one past the sequence number of the event being dispatched
	tickets int    // reserved and not armed yet
	fired   uint64
	stopped bool
	hooks   []DispatchHook
	runEnd  []func()

	// Timing wheel. pos is the cursor: no pending
	// event is earlier than pos, and pos never exceeds the time of the
	// next event to dispatch (it is rewound to now when the queue drains,
	// so late schedules behind a speculatively advanced cursor cannot be
	// misfiled). live counts pending non-canceled events; canceled events
	// stay linked and are collected lazily. cur caches the level-0 slot
	// being drained so same-timestamp batches pop in O(1). free is the
	// recycle list for handle-free (Post) events, refilled freeChunk
	// events at a time.
	pos       Time
	wheel     [wheelLevels][wheelSlots]slot
	occ       [wheelLevels][wheelSlots / 64]uint64
	far       eventHeap
	cur       *slot
	live      int
	free      *Event
	freeChunk int

	// budget, when non-zero, bounds how many events the engine will
	// dispatch; exceeded flips once the bound is hit and the engine
	// refuses further steps — a runaway model becomes a detectable,
	// reportable condition instead of an endless loop.
	budget   uint64
	exceeded bool
}

// DispatchHook observes each dispatched event: the time it fired, the queue
// depth after removing it, and the cumulative fired count including it.
type DispatchHook func(at Time, pending int, fired uint64)

// ErrEventBudget is the sentinel wrapped into any error reporting event
// budget exhaustion, so supervisors (the parallel retry plane) can classify
// a runaway point with errors.Is instead of string matching.
var ErrEventBudget = errors.New("sim event budget exhausted")

// defaultEventBudget is the process-wide budget applied to every new
// engine (0 = unbounded). Atomic so a watchdog goroutine can set it while
// simulations construct engines.
var defaultEventBudget atomic.Uint64

// SetDefaultEventBudget sets the event budget every subsequently built
// Engine starts with (0 = unbounded) and returns the previous value. The
// experiment watchdog uses this to bound runaway simulations it cannot
// reach directly.
func SetDefaultEventBudget(n uint64) uint64 {
	return defaultEventBudget.Swap(n)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{budget: defaultEventBudget.Load()}
}

// SetEventBudget bounds the total events this engine may dispatch
// (0 = unbounded). Lowering the budget below the fired count stops the
// engine on its next step.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// BudgetExceeded reports whether the engine refused to dispatch because
// the event budget ran out.
func (e *Engine) BudgetExceeded() bool { return e.exceeded }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled (canceled events
// excluded, reserved tickets included).
func (e *Engine) Pending() int { return e.live }

// AddDispatchHook appends h to the dispatch hook chain. Hooks run in
// installation order before the event's own callback, so an occupancy gauge
// installed before a sampler is already up to date when the sampler reads
// it. The chain costs one length check per event when empty.
func (e *Engine) AddDispatchHook(h DispatchHook) {
	if h == nil {
		return
	}
	e.hooks = append(e.hooks, h)
}

// AddRunEndHook appends h to the hooks called, in installation order, each
// time Run or RunUntil returns — whether the queue drained, Stop was
// called, the deadline passed or the event budget ran out. Observers that
// batch per-event work (the perf plane's dispatch meter) settle their
// partial batch here.
func (e *Engine) AddRunEndHook(h func()) {
	if h != nil {
		e.runEnd = append(e.runEnd, h)
	}
}

func (e *Engine) endRun() {
	for _, h := range e.runEnd {
		h()
	}
}

// Schedule registers fn to run at absolute time at and returns a handle
// usable with Cancel. Scheduling in the past (before Now) panics: it
// always indicates a modeling bug, and silently reordering time would
// destroy determinism.
//
// The returned handle is never recycled, so holding it past the fire time
// (and even canceling it then) stays safe; hot paths that never cancel
// should use Post, which reuses event objects and allocates nothing in
// steady state.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := &Event{retained: true}
	e.enqueue(ev, at, Func(fn))
	return ev
}

// enqueue stamps ev with its time, the next sequence number and its
// handler, and files it: the one step Post, Schedule and Arm share, which
// is why the three interleave in call order.
func (e *Engine) enqueue(ev *Event, at Time, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev.at, ev.seq, ev.h = at, e.seq, h
	e.seq++
	e.place(ev)
	e.live++
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Post registers fn to run at absolute time at on the handle-free path:
// no *Event escapes, so the engine recycles the event object at dispatch
// and steady-state posting allocates nothing. Use Post wherever the
// caller discards Schedule's handle (it cannot be canceled). Ordering is
// identical to Schedule — Post draws from the same sequence counter.
func (e *Engine) Post(at Time, fn func()) { e.PostHandler(at, Func(fn)) }

// PostHandler is Post for a caller that keeps the event's state in a record
// of its own: h.Fire runs at time at. Posting a pointer allocates nothing.
func (e *Engine) PostHandler(at Time, h Handler) {
	if e.free == nil {
		e.refill()
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	ev.dead = false
	e.enqueue(ev, at, h)
}

// Event chunks start at minEventChunk and double up to maxEventChunk. The
// list has to reach the largest number of events a run ever has queued at
// once — for a network, its packets in flight — from nothing on every fresh
// engine: the doubling gets there in a handful of allocations, the small
// start keeps an engine that carries a dozen events from paying for
// hundreds, and the cap (24 KiB, below the allocator's large-object
// threshold) bounds what the last chunk can leave unused.
const (
	minEventChunk = 16
	maxEventChunk = 512
)

// refill links a fresh chunk of events into the empty free list.
func (e *Engine) refill() {
	switch {
	case e.freeChunk == 0:
		e.freeChunk = minEventChunk
	case e.freeChunk < maxEventChunk:
		e.freeChunk *= 2
	}
	chunk := make([]Event, e.freeChunk)
	for i := range chunk {
		chunk[i].next = e.free
		e.free = &chunk[i]
	}
}

// PostAfter posts fn to run d after the current time (see Post).
func (e *Engine) PostAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Post(e.now+d, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	// A queued event (wheel slot or far heap) is only marked dead and
	// collected lazily at pop/cascade time; the live count updates now.
	ev.dead = true
	if ev.queued {
		e.live--
	}
}

// Timer is a cancellable event owned by its caller: embed one by value in
// the record the timeout belongs to. The zero value is ready. Arm, fire,
// Arm again reuses the same memory for ever.
type Timer struct {
	ev Event
}

// Armed reports whether the timer is pending: armed, and neither fired nor
// disarmed since.
func (t *Timer) Armed() bool { return t.ev.queued && !t.ev.dead }

// Idle reports whether the engine holds no link to the timer: never armed,
// fired, or disarmed and dropped since (by the time the clock reaches the
// deadline at the latest). Arm is legal exactly when Idle is true.
func (t *Timer) Idle() bool { return !t.ev.queued }

// Arm queues the timer to fire h at time at, with the ordering of a
// Schedule call made at the same point. The timer must not be in the queue:
// arming a pending timer panics, and so does arming one that was disarmed
// before its time and has not been reached by the clock yet (a canceled
// event stays linked until then). The timers of this repository are armed
// once per attempt, after the previous attempt's has fired.
func (e *Engine) Arm(t *Timer, at Time, h Handler) { e.ArmReserved(t, at, e.Reserve(), h) }

// Reserve draws the next sequence number for an event that will be queued
// later, and counts that event as pending from now on. The ticket must be
// handed to ArmReserved before the clock passes the place it stands for; a
// model uses it to keep a long run of known future events in a compact
// queue of its own, one armed timer ahead of the clock, and still fire them
// exactly where a Post made at the Reserve call would have.
func (e *Engine) Reserve() uint64 {
	e.seq++
	e.live++
	e.tickets++
	return e.seq - 1
}

// ArmReserved is Arm under a ticket: the timer fires at time at with the
// ordering of an event queued when seq was reserved. (at, seq) must lie
// strictly after the event being dispatched — a ticket armed later than that
// would fire out of order, so it panics instead.
func (e *Engine) ArmReserved(t *Timer, at Time, seq uint64, h Handler) {
	if at < e.now || at == e.now && seq < e.minSeq {
		panic(fmt.Sprintf("sim: timer armed at (%v, #%d), not after the event being dispatched (%v, #%d)", at, seq, e.now, e.minSeq-1))
	}
	if t.ev.queued {
		panic("sim: Arm on a timer still queued")
	}
	t.ev.dead, t.ev.retained = false, true
	t.ev.at, t.ev.seq, t.ev.h = at, seq, h
	e.tickets--
	e.place(&t.ev)
}

// Disarm cancels the timer if it is pending; otherwise it is a no-op.
func (e *Engine) Disarm(t *Timer) { e.Cancel(&t.ev) }

// place files ev into the wheel by the highest byte in which its time
// differs from the cursor, or pushes it to the far heap beyond the wheel
// span. A level-0 slot is kept in sequence order, whatever order its events
// were filed in — straight from a call, from a cascade, from the far heap,
// or as a ticket; above level 0 the order within a slot does not matter.
func (e *Engine) place(ev *Event) {
	ev.queued = true
	at, pos := uint64(ev.at), uint64(e.pos)
	diff := at ^ pos
	var level int
	switch {
	case diff < 1<<8:
		level = 0
	case diff < 1<<16:
		level = 1
	case diff < 1<<24:
		level = 2
	case diff < 1<<32:
		level = 3
	default:
		heap.Push(&e.far, ev)
		return
	}
	idx := int(at>>(wheelBits*level)) & wheelMask
	s := &e.wheel[level][idx]
	switch {
	case s.tail == nil:
		s.head, s.tail = ev, ev
	case level > 0 || s.tail.seq < ev.seq:
		s.tail.next = ev
		s.tail = ev
	default:
		p := &s.head
		for (*p).seq < ev.seq {
			p = &(*p).next
		}
		ev.next, *p = *p, ev
	}
	e.occ[level][idx>>6] |= 1 << (idx & 63)
}

func (e *Engine) clearBit(level, idx int) {
	e.occ[level][idx>>6] &^= 1 << (idx & 63)
}

// scanFrom returns the first occupied slot index ≥ from at the given
// level, using the occupancy bitmap.
func (e *Engine) scanFrom(level, from int) (int, bool) {
	w := from >> 6
	word := e.occ[level][w] & (^uint64(0) << (from & 63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w == wheelSlots/64 {
			return 0, false
		}
		word = e.occ[level][w]
	}
}

// release returns a dispatched or dead event to the free list. Retained
// events (Schedule handles, Timers) are only marked unqueued, never
// recycled.
func (e *Engine) release(ev *Event) {
	ev.queued = false
	ev.h = nil
	if ev.retained {
		return
	}
	ev.next = e.free
	e.free = ev
}

// cascadeCurrent drains any higher-level slot whose window the cursor has
// entered, re-filing its events at strictly lower levels. Reports whether
// anything moved.
func (e *Engine) cascadeCurrent() bool {
	for l := 1; l < wheelLevels; l++ {
		idx := int(uint64(e.pos)>>(wheelBits*l)) & wheelMask
		s := &e.wheel[l][idx]
		if s.head == nil {
			continue
		}
		e.clearBit(l, idx)
		ev := s.head
		s.head, s.tail = nil, nil
		for ev != nil {
			next := ev.next
			ev.next = nil
			if ev.dead {
				e.release(ev)
			} else {
				e.place(ev)
			}
			ev = next
		}
		return true
	}
	return false
}

// advanceCursor moves the cursor to the start of the nearest occupied
// later window (the lowest level wins: its windows are nearer in time).
// Reports false when the wheel holds nothing ahead.
func (e *Engine) advanceCursor() bool {
	for l := 1; l < wheelLevels; l++ {
		shift := wheelBits * l
		cur := int(uint64(e.pos)>>shift) & wheelMask
		if cur+1 >= wheelSlots {
			continue
		}
		if idx, ok := e.scanFrom(l, cur+1); ok {
			base := uint64(e.pos) &^ (uint64(1)<<shift - 1)
			base = base&^(uint64(wheelMask)<<shift) | uint64(idx)<<shift
			e.pos = Time(base)
			return true
		}
	}
	return false
}

// nextSlot advances the cursor to the next occupied exact-timestamp slot
// and returns it, migrating far-future events and cascading windows as
// the cursor reaches them. Returns nil when nothing is queued (live or
// dead-but-linked far events included).
func (e *Engine) nextSlot() *slot {
	for {
		// Far-future overflow: migrate once its wheel-span window is
		// current. Heap pop order is (at, seq), and migration completes
		// before any callback in this window can schedule, so slot
		// append order stays sequence order.
		for len(e.far) > 0 && uint64(e.far[0].at)>>wheelSpanBits == uint64(e.pos)>>wheelSpanBits {
			ev := heap.Pop(&e.far).(*Event)
			if ev.dead {
				e.release(ev)
				continue
			}
			e.place(ev)
		}
		if e.cascadeCurrent() {
			continue
		}
		if idx, ok := e.scanFrom(0, int(uint64(e.pos))&wheelMask); ok {
			s := &e.wheel[0][idx]
			if s.head == nil { // stale bit
				e.clearBit(0, idx)
				continue
			}
			e.pos = Time(uint64(e.pos)&^wheelMask | uint64(idx))
			return s
		}
		if e.advanceCursor() {
			continue
		}
		if len(e.far) > 0 {
			e.pos = e.far[0].at
			continue
		}
		return nil
	}
}

// popWheel removes the next event in (timestamp, sequence) order,
// recycling dead events as it goes. It returns nil when the queue is
// fully drained, rewinding the cursor to now so that events scheduled
// afterwards (later than now but earlier than the speculatively advanced
// cursor) are still filed correctly.
func (e *Engine) popWheel() *Event {
	for {
		s := e.cur
		if s == nil || s.head == nil {
			s = e.nextSlot()
			if s == nil {
				e.cur = nil
				e.pos = e.now
				return nil
			}
			e.cur = s
		}
		ev := s.head
		s.head = ev.next
		ev.next = nil
		if s.head == nil {
			s.tail = nil
			e.clearBit(0, int(uint64(ev.at))&wheelMask)
		}
		if ev.dead {
			e.release(ev)
			continue
		}
		e.live--
		return ev
	}
}

// dispatch fires one live, already-popped event.
func (e *Engine) dispatch(ev *Event) {
	e.now, e.minSeq = ev.at, ev.seq+1
	e.fired++
	h := ev.h
	e.release(ev)
	for _, hook := range e.hooks {
		hook(e.now, e.live, e.fired)
	}
	h.Fire()
}

// Step dispatches the next event. It reports false when the queue is empty
// or the event budget is exhausted (see BudgetExceeded to tell the two
// apart).
func (e *Engine) Step() bool {
	if e.budget > 0 && e.fired >= e.budget {
		e.exceeded = true
		return false
	}
	ev := e.popWheel()
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// Run dispatches events until the queue is empty or Stop is called. This
// is the batched hot loop: consecutive same-timestamp events pop from the
// cached current slot in O(1) with no queue reshaping between them, and
// events a callback schedules for the current timestamp join the tail of
// the same batch. A queue that drains with reserved tickets never armed is
// a panic: their events were counted as pending and can no longer fire.
func (e *Engine) Run() {
	defer e.endRun()
	e.stopped = false
	for !e.stopped {
		if e.budget > 0 && e.fired >= e.budget {
			e.exceeded = true
			return
		}
		ev := e.popWheel()
		if ev == nil {
			if e.tickets != 0 {
				panic(fmt.Sprintf("sim: Run drained the queue with %d reserved tickets never armed", e.tickets))
			}
			return
		}
		e.dispatch(ev)
	}
}

// RunUntil dispatches events with time ≤ deadline, then sets the clock to
// the deadline (if it is later than the last event).
func (e *Engine) RunUntil(deadline Time) {
	defer e.endRun()
	e.stopped = false
	for !e.stopped {
		t, ok := e.peekTime()
		if !ok || t > deadline {
			break
		}
		if !e.Step() {
			break
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// peekTime returns the timestamp of the next live event without moving
// the cursor past it (cascading a window the cursor has already entered
// is cursor-neutral and allowed; advancing the cursor is not, because a
// later Schedule may target a time between now and the peeked event).
func (e *Engine) peekTime() (Time, bool) {
	for {
		// Current batch slot first: it holds events at exactly pos.
		if s := e.cur; s != nil {
			for s.head != nil && s.head.dead {
				ev := s.head
				s.head = ev.next
				ev.next = nil
				if s.head == nil {
					s.tail = nil
					e.clearBit(0, int(uint64(ev.at))&wheelMask)
				}
				e.release(ev)
			}
			if s.head != nil {
				return s.head.at, true
			}
			e.cur = nil
		}
		for len(e.far) > 0 && uint64(e.far[0].at)>>wheelSpanBits == uint64(e.pos)>>wheelSpanBits {
			ev := heap.Pop(&e.far).(*Event)
			if ev.dead {
				e.release(ev)
				continue
			}
			e.place(ev)
		}
		if e.cascadeCurrent() {
			continue
		}
		if idx, ok := e.scanFrom(0, int(uint64(e.pos))&wheelMask); ok {
			s := &e.wheel[0][idx]
			for s.head != nil && s.head.dead {
				ev := s.head
				s.head = ev.next
				ev.next = nil
				e.release(ev)
			}
			if s.head == nil {
				s.tail = nil
				e.clearBit(0, idx)
				continue
			}
			return s.head.at, true
		}
		// Nothing in the current window: the earliest live event is the
		// minimum of the nearest occupied later window (lowest level is
		// nearest; one list walk, pruning dead events in place).
		for l := 1; l < wheelLevels; l++ {
			shift := wheelBits * l
			cur := int(uint64(e.pos)>>shift) & wheelMask
			if cur+1 >= wheelSlots {
				continue
			}
			idx, ok := e.scanFrom(l, cur+1)
			if !ok {
				continue
			}
			if t, ok := e.pruneMin(l, idx); ok {
				return t, true
			}
			// Slot held only dead events; rescan from the top.
			break
		}
		if e.wheelLive() {
			continue
		}
		// Far heap only: prune dead tops, then its root is the minimum.
		for len(e.far) > 0 && e.far[0].dead {
			e.release(heap.Pop(&e.far).(*Event))
		}
		if len(e.far) > 0 {
			return e.far[0].at, true
		}
		return 0, false
	}
}

// pruneMin unlinks dead events from one slot list and returns the minimum
// timestamp among the survivors (false if the slot emptied).
func (e *Engine) pruneMin(level, idx int) (Time, bool) {
	s := &e.wheel[level][idx]
	var prev *Event
	min := Forever
	found := false
	for ev := s.head; ev != nil; {
		next := ev.next
		if ev.dead {
			if prev == nil {
				s.head = next
			} else {
				prev.next = next
			}
			if next == nil {
				s.tail = prev
			}
			ev.next = nil
			e.release(ev)
		} else {
			if ev.at < min {
				min = ev.at
			}
			found = true
			prev = ev
		}
		ev = next
	}
	if s.head == nil {
		s.tail = nil
		e.clearBit(level, idx)
	}
	return min, found
}

// wheelLive reports whether any wheel bitmap bit is set (events may still
// be dead; callers loop until the state settles).
func (e *Engine) wheelLive() bool {
	for l := 0; l < wheelLevels; l++ {
		for _, w := range e.occ[l] {
			if w != 0 {
				return true
			}
		}
	}
	return false
}

// Stop makes the current Run/RunUntil return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }
