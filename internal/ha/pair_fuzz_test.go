package ha

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// refPair is the differential oracle for Pair's exactly-once bookkeeping:
// the pair as it was before the per-uid index — three hash sets, a plain
// slice for the pending log, closures for events, no free lists and no
// arena. Like sim's refHeap it is kept for being obviously right, not fast.
type refPair struct {
	eng              *sim.Engine
	primary, standby Replica
	opt              Options

	phase       phase
	pending     []refDelta
	shipAt      *sim.Event
	seenPrimary map[uint64]struct{}
	seenStandby map[uint64]struct{}
	committed   map[uint64]struct{}
	lastArrival sim.Time
	stats       Stats
}

type refDelta struct {
	uid    uint64
	pkt    *packet.Packet
	at     sim.Time
	commit Committer
}

func newRefPair(eng *sim.Engine, primary, standby Replica, opt Options) *refPair {
	return &refPair{
		eng: eng, primary: primary, standby: standby, opt: opt,
		seenPrimary: map[uint64]struct{}{},
		seenStandby: map[uint64]struct{}{},
		committed:   map[uint64]struct{}{},
	}
}

func (r *refPair) Alive() bool { return r.phase == phasePrimary || r.phase == phaseStandby }

func (r *refPair) Seen(uid uint64) bool {
	set := r.seenStandby
	if r.phase == phasePrimary {
		set = r.seenPrimary
	}
	_, ok := set[uid]
	return ok
}

func (r *refPair) Committed(uid uint64) bool {
	_, ok := r.committed[uid]
	return ok
}

func (r *refPair) Submit(uid uint64, pkt *packet.Packet, commit Committer) error {
	if r.phase == phaseStandby {
		r.seenStandby[uid] = struct{}{}
		r.committed[uid] = struct{}{}
		outs, err := r.standby.Process(pkt)
		if err == nil {
			commit.Commit(outs)
		}
		return err
	}
	d := refDelta{uid: uid, pkt: pkt.Clone(), at: r.eng.Now(), commit: commit}
	_, err := r.primary.Process(pkt)
	r.seenPrimary[uid] = struct{}{}
	if err != nil {
		r.committed[uid] = struct{}{}
		d.commit = nil
	}
	r.pending = append(r.pending, d)
	if r.shipAt == nil {
		at := r.eng.Now()
		if r.opt.SyncInterval > 0 {
			at = (at/r.opt.SyncInterval + 1) * r.opt.SyncInterval
		}
		r.shipAt = r.eng.Schedule(at, r.ship)
	}
	return err
}

func (r *refPair) ship() {
	batch, now := r.pending, r.eng.Now()
	r.pending, r.shipAt = nil, nil
	r.stats.Batches++
	for _, d := range batch {
		r.stats.DeltasShipped++
		r.stats.DeltaBytes += uint64(d.pkt.WireLen()) + deltaHeaderBytes
		r.stats.MaxStalenessPs = max(r.stats.MaxStalenessPs, int64(now-d.at))
		r.committed[d.uid] = struct{}{}
		if d.commit != nil {
			d.commit.Commit(nil)
		}
	}
	r.lastArrival = max(r.lastArrival, now+r.opt.ReplDelay)
	r.eng.Post(now+r.opt.ReplDelay, func() {
		for _, d := range batch {
			r.stats.DeltasApplied++
			if r.phase == phaseFailover {
				r.stats.ReplayDepth++
			}
			r.seenStandby[d.uid] = struct{}{}
			r.standby.Process(d.pkt)
		}
	})
}

func (r *refPair) Crash() {
	now := r.eng.Now()
	switch r.phase {
	case phasePrimary:
		r.phase = phaseFailover
		r.stats.CrashAt = now
		r.stats.DiscardedDeltas += uint64(len(r.pending))
		for _, d := range r.pending {
			if d.commit != nil {
				d.commit.Discard()
			}
		}
		r.pending = nil
		if r.shipAt != nil {
			r.eng.Cancel(r.shipAt)
			r.shipAt = nil
		}
		r.eng.Post(max(now+r.opt.FailoverDelay, r.lastArrival), func() {
			r.phase = phaseStandby
			r.stats.PromotedAt = r.eng.Now()
			r.stats.Promotions++
		})
	case phaseStandby:
		r.phase = phaseDead
	}
}

// fuzzErrSeq marks a packet both replicas refuse: processing errors are
// deterministic, so the standby's replay reproduces the primary's.
const fuzzErrSeq = 1 << 31

// fuzzReplica records, per uid, how often it was handed the packet —
// refused packets included, since a refusal is that packet's state change.
type fuzzReplica struct {
	order []uint32
	count map[uint32]int
}

func (r *fuzzReplica) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	uid := d.Base.Seq &^ fuzzErrSeq
	r.order = append(r.order, uid)
	r.count[uid]++
	if d.Base.Seq&fuzzErrSeq != 0 {
		return nil, errors.New("refused")
	}
	return nil, nil
}

// fuzzCommit is one submission's Committer: it records the order packets
// became ackable (or were discarded) in on its side, and how often it was
// called — exactly once per Submit that returned no error, by the end.
type fuzzCommit struct {
	uid   uint64
	side  *fuzzSide
	calls int
	err   error
}

func (c *fuzzCommit) Commit([]*packet.Packet) {
	c.calls++
	c.side.commits = append(c.side.commits, c.uid)
}

func (c *fuzzCommit) Discard() {
	c.calls++
	c.side.discards = append(c.side.discards, c.uid)
}

// pairUnderTest is what the fuzzer drives on both sides.
type pairUnderTest interface {
	Alive() bool
	Seen(uid uint64) bool
	Committed(uid uint64) bool
	Submit(uid uint64, pkt *packet.Packet, commit Committer) error
	Crash()
}

// fuzzSide is a pair (the real one or the reference) with its own clock,
// replicas and commit record.
type fuzzSide struct {
	eng      *sim.Engine
	pair     pairUnderTest
	pri, sby *fuzzReplica
	commits  []uint64
	discards []uint64
	subs     []*fuzzCommit
}

// arrive is the caller's protocol around Submit, netsim.haArrival's: a dead
// pair drops, a packet the active replica has seen is suppressed, anything
// else is submitted. It returns what the caller could observe.
func (s *fuzzSide) arrive(uid uint64, refused bool) string {
	if !s.pair.Alive() {
		return "drop"
	}
	if s.pair.Seen(uid) {
		return fmt.Sprintf("dup committed=%v", s.pair.Committed(uid))
	}
	seq := uint32(uid)
	if refused {
		seq |= fuzzErrSeq
	}
	pkt := packet.BuildRaw(packet.Header{Seq: seq, CoflowID: 7}, 40)
	c := &fuzzCommit{uid: uid, side: s}
	c.err = s.pair.Submit(uid, pkt, c)
	s.subs = append(s.subs, c)
	return fmt.Sprintf("submit err=%v", c.err)
}

// legalUIDState are the values a state byte can hold: the histories in
// pair.go's comment, plus a discarded delta's byte (uidPrimary alone)
// completed by the standby serving the retransmission.
var legalUIDState = [8]bool{
	0:                                      true,
	uidPrimary:                             true,
	uidPrimary | uidCommitted:              true,
	uidPrimary | uidCommitted | uidStandby: true,
	uidStandby | uidCommitted:              true,
}

// FuzzPairOps runs a program of arrivals, clock advances and crashes on a
// Pair and on refPair and demands that nothing observable differs after any
// step: Seen, Committed and Alive for every uid issued (and two never
// issued), Stats, the order packets committed in and the order each replica
// processed them in, the order deltas were discarded in, and that no
// committer is called twice — nor, once the program has drained, a
// successful Submit's committer never or a refused one's at all. On the
// real pair it also checks what the index promises: every state byte is one
// of the legal values, no bit is ever cleared, committed ⊆ applied, and
// neither replica is handed a packet twice. prog[0] picks the options; then
// two bytes per step, opcode and argument.
func FuzzPairOps(f *testing.F) {
	// Immediate shipping: fresh, duplicate, refused, drain, crash, retransmit
	// everything to the standby, promote, retransmit again, fresh on standby.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 2, 0, 5, 0, 0, 0, 4, 0, 1, 0, 1, 1, 1, 2, 1, 3, 5, 0, 1, 0, 1, 3, 0, 0, 2, 0, 4, 0, 0, 0})
	// Batched: a batch ships and lands, the next dies pending with the
	// primary; replay during failover, then the discarded uids come back.
	f.Add([]byte{1, 0, 0, 0, 0, 2, 0, 3, 30, 0, 0, 0, 0, 1, 1, 3, 3, 4, 0, 3, 2, 1, 0, 1, 3, 5, 0, 1, 2, 1, 3, 1, 4, 0, 0})
	// Batched, slow channel, fast controller: promotion waits for the
	// in-flight batch; duplicates arrive while it is still on the wire.
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 3, 25, 4, 0, 1, 0, 3, 40, 1, 1, 3, 255, 1, 2, 0, 0, 5, 0, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		opt := DefaultOptions()
		if prog[0]&1 != 0 {
			opt.SyncInterval = 2 * sim.Microsecond
		}
		if prog[0]&2 != 0 {
			opt.ReplDelay = 15 * sim.Microsecond // outlasts the failover delay
		}
		if prog[0]&4 != 0 {
			opt.FailoverDelay = sim.Microsecond
		}
		newSide := func() *fuzzSide {
			return &fuzzSide{
				eng: sim.NewEngine(),
				pri: &fuzzReplica{count: map[uint32]int{}},
				sby: &fuzzReplica{count: map[uint32]int{}},
			}
		}
		got, want := newSide(), newSide()
		real, err := NewPair(got.eng, got.pri, got.sby, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefPair(want.eng, want.pri, want.sby, opt)
		got.pair, want.pair = real, ref

		var refused []bool // by uid: one entry per packet issued
		var before []uint8 // the state bytes after the previous step
		check := func(step int, op string, drained bool) {
			t.Helper()
			issued := uint64(len(refused))
			if g, w := real.Alive(), ref.Alive(); g != w {
				t.Fatalf("step %d (%s): Alive %v, reference %v", step, op, g, w)
			}
			if g, w := real.Stats(), ref.stats; g != w {
				t.Fatalf("step %d (%s): Stats\n got %+v\nwant %+v", step, op, g, w)
			}
			if g, w := got.eng.Now(), want.eng.Now(); g != w {
				t.Fatalf("step %d (%s): clocks diverged: %v, reference %v", step, op, g, w)
			}
			for _, uid := range []uint64{issued, 1 << 40} {
				if real.Seen(uid) || real.Committed(uid) {
					t.Fatalf("step %d (%s): uid %d was never submitted and reads seen/committed", step, op, uid)
				}
			}
			for uid := uint64(0); uid < issued; uid++ {
				if g, w := real.Seen(uid), ref.Seen(uid); g != w {
					t.Fatalf("step %d (%s): Seen(%d) %v, reference %v", step, op, uid, g, w)
				}
				if g, w := real.Committed(uid), ref.Committed(uid); g != w {
					t.Fatalf("step %d (%s): Committed(%d) %v, reference %v", step, op, uid, g, w)
				}
				p, s := got.pri.count[uint32(uid)], got.sby.count[uint32(uid)]
				if real.Committed(uid) && p+s == 0 {
					t.Fatalf("step %d (%s): uid %d is committed and no replica has applied it", step, op, uid)
				}
				if p > 1 || s > 1 {
					t.Fatalf("step %d (%s): uid %d applied %d times by the primary, %d by the standby", step, op, uid, p, s)
				}
			}
			for uid, b := range real.state {
				if !legalUIDState[b] {
					t.Fatalf("step %d (%s): uid %d holds state %03b, which no history reaches", step, op, uid, b)
				}
				if uid < len(before) && b&before[uid] != before[uid] {
					t.Fatalf("step %d (%s): uid %d went from state %03b to %03b: a bit was cleared", step, op, uid, before[uid], b)
				}
			}
			before = append(before[:0], real.state...)
			if !slices.Equal(got.commits, want.commits) || !slices.Equal(got.discards, want.discards) {
				t.Fatalf("step %d (%s): commit order %v, discard order %v; reference %v, %v",
					step, op, got.commits, got.discards, want.commits, want.discards)
			}
			for _, s := range []*fuzzSide{got, want} {
				for _, c := range s.subs {
					if c.calls > 1 || drained && (c.calls == 1) != (c.err == nil) {
						t.Fatalf("step %d (%s): uid %d's committer (Submit err %v) called %d times", step, op, c.uid, c.err, c.calls)
					}
				}
			}
			if !slices.Equal(got.pri.order, want.pri.order) || !slices.Equal(got.sby.order, want.sby.order) {
				t.Fatalf("step %d (%s): replicas processed %v / %v, reference %v / %v",
					step, op, got.pri.order, got.sby.order, want.pri.order, want.sby.order)
			}
		}
		both := func(do func(*fuzzSide) string) string {
			g, w := do(got), do(want)
			if g != w {
				t.Fatalf("the caller saw %q, the reference's caller %q", g, w)
			}
			return g
		}
		step := 0
		for prog = prog[1:]; len(prog) >= 2 && step < 1024; prog = prog[2:] {
			step++
			arg := uint64(prog[1])
			var op string
			switch prog[0] % 6 {
			case 0, 2: // a packet's first transmission; opcode 2's is refused by the replicas
				uid := uint64(len(refused))
				refused = append(refused, prog[0]%6 == 2)
				op = fmt.Sprintf("first %d: ", uid) + both(func(s *fuzzSide) string { return s.arrive(uid, refused[uid]) })
			case 1: // a retransmission: the same packet, so refused again if it was
				if len(refused) == 0 {
					continue
				}
				uid := arg % uint64(len(refused))
				op = fmt.Sprintf("again %d: ", uid) + both(func(s *fuzzSide) string { return s.arrive(uid, refused[uid]) })
			case 3:
				d := sim.Time(arg) * 100 * sim.Nanosecond
				op = fmt.Sprintf("advance %v", d)
				both(func(s *fuzzSide) string {
					// A budget stop at now+d ends the Run there.
					s.eng.PostAfter(d, func() { s.eng.SetEventBudget(s.eng.Fired()) })
					s.eng.Run()
					s.eng.SetEventBudget(0)
					return ""
				})
			case 4:
				op = "crash"
				both(func(s *fuzzSide) string { s.pair.Crash(); return "" })
			case 5:
				op = "drain"
				both(func(s *fuzzSide) string { s.eng.Run(); return "" })
			}
			check(step, op, false)
		}
		both(func(s *fuzzSide) string { s.eng.Run(); return "" })
		check(step+1, "final drain", true)
	})
}
