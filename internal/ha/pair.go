package ha

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Replica is any switch model the pair can replicate. Replication is by
// deterministic re-execution (State-Compute Replication): the standby is
// built identically to the primary and replays the primary's exact packet
// sequence, so it converges to identical state — including counters —
// without ever serializing that state on the wire.
type Replica interface {
	Process(pkt *packet.Packet) ([]*packet.Packet, error)
}

// Options tunes the replication channel and the failover controller.
type Options struct {
	// SyncInterval batches deltas: the primary ships the pending log at
	// each multiple of the interval. Zero ships every delta immediately
	// (minimum staleness, maximum per-delta overhead).
	SyncInterval sim.Time
	// ReplDelay is the sync channel's one-way latency: a shipped delta is
	// applied at the standby ReplDelay later.
	ReplDelay sim.Time
	// FailoverDelay models the controller's failure detection plus
	// promotion time: the standby starts serving no earlier than crash +
	// FailoverDelay (and never before in-flight deltas have landed).
	FailoverDelay sim.Time
}

// DefaultOptions: immediate shipping over a 500 ns channel, 10 µs failover.
func DefaultOptions() Options {
	return Options{
		ReplDelay:     500 * sim.Nanosecond,
		FailoverDelay: 10 * sim.Microsecond,
	}
}

// deltaHeaderBytes models the per-delta framing on the sync channel:
// packet UID (8) + capture timestamp (8) + length (4).
const deltaHeaderBytes = 20

// Committer is the caller's half of output commit (see the package comment):
// Commit hands it the packet's outputs once the delta is on the sync channel,
// when the caller may ack the packet and forward them; Discard, if the delta
// died unshipped with the primary. An interface rather than a func, so that
// a caller with a record per packet passes the record and builds no closure.
type Committer interface {
	Commit(outs []*packet.Packet)
	Discard()
}

// delta is one logged state mutation: the packet that caused it, as a
// struct of the pair's own over its bytes, taken before the primary runs,
// so the standby re-executes the fields and bytes the primary was handed.
type delta struct {
	uid    uint64
	pkt    *packet.Packet
	at     sim.Time
	outs   []*packet.Packet
	commit Committer
	next   *delta // free list
}

// batch is one shipment on the sync channel and the handler of its arrival
// at the standby. Batches are the pair's own records: once applied, a batch
// and its deltas go back on the pair's free lists, buffer included, so the
// log stops allocating once it has reached the depth the channel needs.
type batch struct {
	p      *Pair
	deltas []*delta
	next   *batch // free list
}

// Fire applies the batch at the standby (sim.Handler).
func (b *batch) Fire() { b.p.applyBatch(b) }

// shipTimer is the pair as the handler of its own ship timer.
type shipTimer Pair

// Fire ships the pending log (sim.Handler).
func (s *shipTimer) Fire() { (*Pair)(s).ship() }

type phase uint8

const (
	phasePrimary  phase = iota // primary serving, standby applying deltas
	phaseFailover              // primary crashed, standby not yet promoted
	phaseStandby               // standby promoted and serving
	phaseDead                  // both replicas lost
)

// Stats is the pair's replication and failover accounting.
type Stats struct {
	// DeltasShipped/DeltaBytes/Batches measure the sync channel;
	// DeltasApplied counts standby re-executions, of which ReplayDepth
	// happened after the crash (the in-flight log drained during
	// failover). DiscardedDeltas died unshipped with the primary — their
	// packets were never acked, so senders retransmit them to the standby.
	DeltasShipped, DeltaBytes, Batches uint64
	DeltasApplied, ReplayDepth         uint64
	DiscardedDeltas                    uint64
	// MaxStalenessPs is the largest observed age of a delta at ship time:
	// the bound on how far the standby's state trails the primary's.
	MaxStalenessPs int64
	CrashAt        sim.Time
	PromotedAt     sim.Time
	Promotions     uint64
}

// Pair replicates a primary switch onto a warm standby. The caller routes
// every intact switch arrival through Submit; the pair executes it on the
// active replica and enforces output commit: the primary's outputs (and
// the caller's ack) are withheld until the packet's delta is on the sync
// channel, so a crash can never ack a packet whose state change was lost.
// Combined with the caller's duplicate suppression over Seen, every
// packet's state application is exactly-once across the failover boundary.
type Pair struct {
	eng     *sim.Engine
	primary Replica
	standby Replica
	opt     Options

	phase phase
	// pending is the batch being filled (nil when nothing is logged);
	// shipAt is armed while it waits for its sync boundary.
	pending *batch
	shipAt  sim.Timer

	// Free lists of applied batches and deltas, the unissued end of the
	// current delta chunk (slabN long), and the arena the logged packet
	// structs come from. All nil until the first Submit.
	freeBatch *batch
	freeDelta *delta
	slab      []delta
	slabN     int
	arena     packet.Arena

	// state holds the uid* bits of every packet, one byte at index uid.
	state []uint8

	// lastArrival is the latest scheduled in-flight delta arrival; the
	// promotion barrier waits for it so a retransmission can never reach
	// the standby ahead of the delta that already applied its packet.
	lastArrival sim.Time

	stats        Stats
	stalenessObs func(ps float64)
}

// NewPair builds a replication pair over the engine's clock.
func NewPair(eng *sim.Engine, primary, standby Replica, opt Options) (*Pair, error) {
	switch {
	case primary == nil || standby == nil:
		return nil, fmt.Errorf("ha: nil replica")
	case opt.SyncInterval < 0 || opt.ReplDelay < 0 || opt.FailoverDelay < 0:
		return nil, fmt.Errorf("ha: negative option")
	}
	return &Pair{eng: eng, primary: primary, standby: standby, opt: opt}, nil
}

// The bits of a packet's state byte. Submit's uids are the caller's dense
// send sequence (netsim's txSeq++: a run of N packets uses 0…N-1; a caller
// without retransmission state passes 0 throughout), so the byte lives at
// state[uid]: an index, not a hash, one byte per original packet for the
// pair's life. Legal histories, enforced by FuzzPairOps:
//
//	0 → primary → primary|committed → all three   Submit, ship, applyBatch
//	0 → primary → all three   the delta died unshipped with the primary; the
//	                          standby served the retransmission
//	0 → standby|committed     Submit on the promoted standby
//
// (a refused packet commits inside Submit); committed never stands alone.
const (
	uidPrimary   uint8 = 1 << iota // applied by the primary
	uidStandby                     // applied by the standby, replayed or served
	uidCommitted                   // delta shipped, or served by the standby: ackable
)

// maxUIDGap is how far past the index a uid may lie: arrival order is not
// send order, so the gap can be a run's packet count; 16 Mi allows that and
// makes a hashed uid a panic by name, not gigabytes.
const maxUIDGap = 1 << 24

// mark sets bits in uid's state byte, at least doubling an index too short.
func (p *Pair) mark(uid uint64, bits uint8) {
	if n := uint64(len(p.state)); uid >= n {
		if uid-n >= maxUIDGap {
			panic(fmt.Sprintf("ha: Submit: packet uid %d is %d beyond the %d indexed so far; uids must be the caller's dense send sequence 0, 1, 2, …", uid, uid-n, n))
		}
		grow := max(2*n, uid+1, 1024) - n
		p.state = append(p.state, make([]uint8, grow)...)
	}
	p.state[uid] |= bits
}

// Alive reports whether a replica is currently serving traffic.
func (p *Pair) Alive() bool { return p.phase == phasePrimary || p.phase == phaseStandby }

// Seen reports whether the active replica has already applied packet uid —
// the caller's duplicate-suppression predicate. During failover it answers
// for the standby (the replica a retransmission would reach).
func (p *Pair) Seen(uid uint64) bool {
	bit := uidStandby
	if p.phase == phasePrimary {
		bit = uidPrimary
	}
	return uid < uint64(len(p.state)) && p.state[uid]&bit != 0
}

// Committed reports whether packet uid's delta has shipped: its ack may be
// (re)sent. A seen-but-uncommitted duplicate must stay unacked — the
// pending commit will ack it, and an early ack would break output commit.
func (p *Pair) Committed(uid uint64) bool {
	return uid < uint64(len(p.state)) && p.state[uid]&uidCommitted != 0
}

// Submit executes one intact arrival on the active replica. On the
// primary, outputs and the commit are withheld until the delta ships; on a
// promoted standby the commit runs synchronously. A processing error is
// returned immediately (it is deterministic, so the standby's replay
// reproduces it and the replicas stay identical) and the committer is
// dropped unused, neither committed nor discarded; the caller books and acks
// errored packets as it would without replication.
func (p *Pair) Submit(uid uint64, pkt *packet.Packet, commit Committer) error {
	switch p.phase {
	case phasePrimary:
		d := p.newDelta()
		d.uid, d.pkt, d.at = uid, p.arena.Share(pkt), p.eng.Now()
		outs, err := p.primary.Process(pkt)
		p.mark(uid, uidPrimary)
		if err != nil {
			p.state[uid] |= uidCommitted
		} else {
			d.outs, d.commit = outs, commit
		}
		p.log(d)
		return err
	case phaseStandby:
		p.mark(uid, uidStandby|uidCommitted)
		outs, err := p.standby.Process(pkt)
		if err == nil {
			commit.Commit(outs)
		}
		return err
	default:
		panic("ha: submit while no replica is serving (check Alive first)")
	}
}

// deltaSlab is how many delta records one chunk holds.
const deltaSlab = 64

// newDelta returns a blank delta: an applied one if there is one, else the
// next of the current chunk.
func (p *Pair) newDelta() *delta {
	if d := p.freeDelta; d != nil {
		p.freeDelta, d.next = d.next, nil
		return d
	}
	return &packet.Chunk(&p.slab, &p.slabN, 1, deltaSlab, deltaSlab)[0]
}

// log appends a delta to the pending batch and arms the ship timer: now
// for immediate mode, the next sync boundary otherwise.
func (p *Pair) log(d *delta) {
	if p.pending == nil {
		if p.pending = p.freeBatch; p.pending != nil {
			p.freeBatch = p.pending.next
		} else {
			p.pending = &batch{p: p}
		}
	}
	p.pending.deltas = append(p.pending.deltas, d)
	if p.shipAt.Armed() {
		return
	}
	at := p.eng.Now()
	if p.opt.SyncInterval > 0 {
		at = (at/p.opt.SyncInterval + 1) * p.opt.SyncInterval
	}
	p.eng.Arm(&p.shipAt, at, (*shipTimer)(p))
}

// ship puts the pending batch on the sync channel. Shipping is the commit
// point: each delta's packet becomes ackable and its withheld outputs are
// released. The channel itself is reliable — once shipped, a delta reaches
// the standby even if the primary dies meanwhile — so the only loss window
// is the pending log, which dies with the primary unacked.
func (p *Pair) ship() {
	b := p.pending
	p.pending = nil
	now := p.eng.Now()
	p.stats.Batches++
	for _, d := range b.deltas {
		p.stats.DeltasShipped++
		p.stats.DeltaBytes += uint64(d.pkt.WireLen()) + deltaHeaderBytes
		stale := int64(now - d.at)
		p.stats.MaxStalenessPs = max(p.stats.MaxStalenessPs, stale)
		if p.stalenessObs != nil {
			p.stalenessObs(float64(stale))
		}
		p.state[d.uid] |= uidCommitted
		if d.commit != nil {
			d.commit.Commit(d.outs)
		}
	}
	arrive := now + p.opt.ReplDelay
	p.lastArrival = max(p.lastArrival, arrive)
	p.eng.PostHandler(arrive, b)
}

// applyBatch re-executes a shipped batch on the standby, in the primary's
// processing order. Outputs are discarded (the primary already delivered
// them) and errors are expected to reproduce the primary's. The batch's
// records are then free: nobody outside the pair ever saw them. The packets
// they pointed at are not — the standby was handed each one and may keep it.
func (p *Pair) applyBatch(b *batch) {
	for i, d := range b.deltas {
		p.stats.DeltasApplied++
		if p.phase == phaseFailover {
			p.stats.ReplayDepth++
		}
		p.state[d.uid] |= uidStandby
		p.standby.Process(d.pkt)
		*d = delta{next: p.freeDelta}
		p.freeDelta = d
		b.deltas[i] = nil
	}
	b.deltas = b.deltas[:0]
	b.next, p.freeBatch = p.freeBatch, b
}

// Crash kills the serving replica. A primary crash discards the unshipped
// pending log, telling each committer (those packets were never acked —
// their senders will retransmit to the standby), and schedules promotion
// once the controller's failover delay has passed and every in-flight delta
// has landed. A crash of the promoted standby leaves no replica.
func (p *Pair) Crash() {
	now := p.eng.Now()
	switch p.phase {
	case phasePrimary:
		p.phase = phaseFailover
		p.stats.CrashAt = now
		if p.pending != nil {
			p.stats.DiscardedDeltas += uint64(len(p.pending.deltas))
			for _, d := range p.pending.deltas {
				if d.commit != nil {
					d.commit.Discard()
				}
			}
			p.pending = nil
		}
		p.eng.Disarm(&p.shipAt)
		p.eng.Post(max(now+p.opt.FailoverDelay, p.lastArrival), p.promote)
	case phaseStandby:
		p.phase = phaseDead
	}
}

func (p *Pair) promote() {
	p.phase = phaseStandby
	p.stats.PromotedAt = p.eng.Now()
	p.stats.Promotions++
}

// Stats returns a copy of the replication/failover accounting.
func (p *Pair) Stats() Stats { return p.stats }

// SetStalenessObserver installs a per-delta staleness observer (ship time
// minus capture time, in picoseconds); nil removes it.
func (p *Pair) SetStalenessObserver(fn func(ps float64)) { p.stalenessObs = fn }
