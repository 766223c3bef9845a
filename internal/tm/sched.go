package tm

import "repro/internal/packet"

// This file implements programmable scheduling disciplines on top of the
// PIFO primitive — the §5 direction ("intriguing opportunities can be
// unleashed when making the scheduler programmable, especially in an
// architecture ... that heavily relies on multiple shared memory
// schedulers"). A discipline is just a rank function; the PIFO dequeues
// smallest-rank-first. Included: strict priority, start-time fair queueing
// (weighted), and coflow-aware shortest-coflow-first (Sincronia-style),
// which is the discipline a *coflow processor* would natively run.

// Scheduler wraps a PIFO with a rank discipline.
type Scheduler struct {
	pifo *PIFO
	rank RankFn
}

// RankFn assigns a rank to a packet at enqueue time; lower dequeues first.
type RankFn func(p *packet.Packet) uint64

// NewScheduler builds a scheduler with the given discipline and capacity
// (0 = unbounded).
func NewScheduler(capacity int, rank RankFn) *Scheduler {
	if rank == nil {
		panic("tm: nil rank function")
	}
	return &Scheduler{pifo: NewPIFO(capacity), rank: rank}
}

// Enqueue ranks and queues a packet; false when full.
func (s *Scheduler) Enqueue(p *packet.Packet) bool {
	return s.pifo.Push(p, s.rank(p))
}

// Dequeue returns the next packet by rank order.
func (s *Scheduler) Dequeue() (*packet.Packet, bool) {
	p, _, ok := s.pifo.Pop()
	return p, ok
}

// Len returns queued packets.
func (s *Scheduler) Len() int { return s.pifo.Len() }

// FIFORank ranks by arrival order (the PIFO's tie-break does the work).
func FIFORank() RankFn {
	return func(p *packet.Packet) uint64 { return 0 }
}

// SCFState tracks per-coflow remaining bytes for shortest-coflow-first.
type SCFState struct {
	remaining map[uint32]uint64
}

// NewSCFState builds the coflow size table. Sizes are the total bytes each
// coflow will send (known a priori in the Sincronia/clairvoyant setting,
// or estimated online in practice).
func NewSCFState(sizes map[uint32]uint64) *SCFState {
	rem := make(map[uint32]uint64, len(sizes))
	for id, n := range sizes {
		rem[id] = n
	}
	return &SCFState{remaining: rem}
}

// Rank returns the shortest-remaining-coflow-first discipline: a packet's
// rank is its coflow's remaining bytes at enqueue time, so packets of
// nearly-finished coflows overtake bulky ones. Unknown coflows rank last.
func (s *SCFState) Rank() RankFn {
	return func(p *packet.Packet) uint64 {
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil {
			return ^uint64(0)
		}
		rem, ok := s.remaining[d.Base.CoflowID]
		if !ok {
			return ^uint64(0)
		}
		wire := uint64(p.WireLen())
		if rem > wire {
			s.remaining[d.Base.CoflowID] = rem - wire
		} else {
			s.remaining[d.Base.CoflowID] = 0
		}
		return rem
	}
}

// STFQ implements start-time fair queueing: per-flow virtual start times
// against a global virtual clock, weighted. It is the canonical
// PIFO-expressible fair scheduler.
type STFQ struct {
	virtual    uint64
	lastFinish map[uint64]uint64
	weightOf   func(flow uint64) uint64
	flowOf     func(p *packet.Packet) uint64
}

// NewSTFQ builds a weighted fair scheduler state. weightOf returns a
// flow's weight (≥1); flowOf extracts the flow key from a packet.
func NewSTFQ(flowOf func(p *packet.Packet) uint64, weightOf func(flow uint64) uint64) *STFQ {
	if flowOf == nil || weightOf == nil {
		panic("tm: nil STFQ extractor")
	}
	return &STFQ{
		lastFinish: make(map[uint64]uint64),
		weightOf:   weightOf,
		flowOf:     flowOf,
	}
}

// Rank returns the STFQ discipline: rank = max(virtual time, flow's last
// finish); the flow's next start advances by size/weight.
func (q *STFQ) Rank() RankFn {
	return func(p *packet.Packet) uint64 {
		flow := q.flowOf(p)
		start := q.virtual
		if f := q.lastFinish[flow]; f > start {
			start = f
		}
		w := q.weightOf(flow)
		if w == 0 {
			w = 1
		}
		q.lastFinish[flow] = start + uint64(p.WireLen())/w
		return start
	}
}

// OnDequeue advances the virtual clock to the dequeued packet's rank; the
// caller invokes it with the rank of each packet it dequeues. (When using
// Scheduler this is handled by ScheduledDequeue.)
func (q *STFQ) OnDequeue(rank uint64) {
	if rank > q.virtual {
		q.virtual = rank
	}
}

// STFQScheduler couples a PIFO with STFQ state so the virtual clock
// advances on dequeue.
type STFQScheduler struct {
	pifo *PIFO
	q    *STFQ
	rank RankFn
}

// NewSTFQScheduler builds a weighted-fair scheduler.
func NewSTFQScheduler(capacity int, q *STFQ) *STFQScheduler {
	return &STFQScheduler{pifo: NewPIFO(capacity), q: q, rank: q.Rank()}
}

// Enqueue queues a packet under its fair rank.
func (s *STFQScheduler) Enqueue(p *packet.Packet) bool {
	return s.pifo.Push(p, s.rank(p))
}

// Dequeue pops the next packet and advances the virtual clock.
func (s *STFQScheduler) Dequeue() (*packet.Packet, bool) {
	p, rank, ok := s.pifo.Pop()
	if ok {
		s.q.OnDequeue(rank)
	}
	return p, ok
}

// Len returns queued packets.
func (s *STFQScheduler) Len() int { return s.pifo.Len() }
