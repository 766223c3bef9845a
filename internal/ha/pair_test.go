package ha_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/sim"
)

// memReplica is a minimal stateful Replica: it records each packet's Seq
// and how often it was applied, so tests can prove exactly-once semantics
// and replay ordering directly.
type memReplica struct {
	order   []uint32
	applied map[uint32]int
	err     error
}

func newMemReplica() *memReplica { return &memReplica{applied: map[uint32]int{}} }

func (r *memReplica) Process(p *packet.Packet) ([]*packet.Packet, error) {
	if r.err != nil {
		return nil, r.err
	}
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	r.order = append(r.order, d.Base.Seq)
	r.applied[d.Base.Seq]++
	return []*packet.Packet{p}, nil
}

func seqPkt(seq uint32) *packet.Packet {
	return packet.BuildRaw(packet.Header{Seq: seq, CoflowID: 7}, 40)
}

func newTestPair(t *testing.T, opt ha.Options) (*sim.Engine, *ha.Pair, *memReplica, *memReplica) {
	t.Helper()
	eng := sim.NewEngine()
	pri, sby := newMemReplica(), newMemReplica()
	pair, err := ha.NewPair(eng, pri, sby, opt)
	if err != nil {
		t.Fatal(err)
	}
	return eng, pair, pri, sby
}

// commitFunc adapts a test's closure to the pair's Committer.
type commitFunc func(outs []*packet.Packet)

func (f commitFunc) Commit(outs []*packet.Packet) { f(outs) }
func (f commitFunc) Discard()                     {}

func TestPairRejectsBadArguments(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := ha.NewPair(eng, nil, newMemReplica(), ha.Options{}); err == nil {
		t.Fatal("nil primary accepted")
	}
	if _, err := ha.NewPair(eng, newMemReplica(), newMemReplica(), ha.Options{ReplDelay: -1}); err == nil {
		t.Fatal("negative option accepted")
	}
}

func TestImmediateShipCommitsAndReplicates(t *testing.T) {
	opt := ha.DefaultOptions() // SyncInterval 0: ship immediately
	eng, pair, pri, sby := newTestPair(t, opt)
	var commitAt sim.Time = -1
	if err := pair.Submit(1, seqPkt(1), commitFunc(func([]*packet.Packet) { commitAt = eng.Now() })); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if commitAt != 0 {
		t.Fatalf("immediate mode committed at %v, want 0", commitAt)
	}
	if pri.applied[1] != 1 || sby.applied[1] != 1 {
		t.Fatalf("applied primary %d standby %d, want 1/1", pri.applied[1], sby.applied[1])
	}
	if !pair.Seen(1) || !pair.Committed(1) {
		t.Fatal("seen/committed not recorded")
	}
	st := pair.Stats()
	if st.Batches != 1 || st.DeltasShipped != 1 || st.DeltasApplied != 1 || st.MaxStalenessPs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSyncIntervalBatchesAndBoundsStaleness(t *testing.T) {
	opt := ha.DefaultOptions()
	opt.SyncInterval = 2 * sim.Microsecond
	eng, pair, _, sby := newTestPair(t, opt)
	var stales []float64
	pair.SetStalenessObserver(func(ps float64) { stales = append(stales, ps) })
	commits := map[uint64]sim.Time{}
	submit := func(uid uint64, at sim.Time) {
		eng.Schedule(at, func() {
			if err := pair.Submit(uid, seqPkt(uint32(uid)), commitFunc(func([]*packet.Packet) { commits[uid] = eng.Now() })); err != nil {
				t.Error(err)
			}
		})
	}
	submit(1, 0)
	submit(2, 500*sim.Nanosecond)
	submit(3, 3*sim.Microsecond) // next interval
	eng.Run()
	want := 2 * sim.Microsecond
	if commits[1] != want || commits[2] != want {
		t.Fatalf("first batch committed at %v/%v, want %v", commits[1], commits[2], want)
	}
	if commits[3] != 4*sim.Microsecond {
		t.Fatalf("second batch committed at %v, want 4us", commits[3])
	}
	st := pair.Stats()
	if st.Batches != 2 || st.DeltasShipped != 3 {
		t.Fatalf("stats %+v", st)
	}
	// The oldest delta of batch one waited a full interval: that is the
	// staleness bound the sync interval buys.
	if st.MaxStalenessPs != int64(2*sim.Microsecond) {
		t.Fatalf("max staleness %d ps, want %d", st.MaxStalenessPs, int64(2*sim.Microsecond))
	}
	if len(stales) != 3 {
		t.Fatalf("observer saw %d deltas, want 3", len(stales))
	}
	if got := []uint32{1, 2, 3}; len(sby.order) != 3 || sby.order[0] != got[0] || sby.order[1] != got[1] || sby.order[2] != got[2] {
		t.Fatalf("standby applied order %v", sby.order)
	}
}

func TestCrashDiscardsPendingAndStandbyServesFresh(t *testing.T) {
	opt := ha.DefaultOptions()
	opt.SyncInterval = 10 * sim.Microsecond
	opt.FailoverDelay = 5 * sim.Microsecond
	eng, pair, pri, sby := newTestPair(t, opt)
	committed := false
	if err := pair.Submit(1, seqPkt(1), commitFunc(func([]*packet.Packet) { committed = true })); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(sim.Microsecond, pair.Crash)
	eng.Run()
	if committed {
		t.Fatal("unshipped delta committed across the crash")
	}
	st := pair.Stats()
	if st.DiscardedDeltas != 1 || st.DeltasShipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Promotions != 1 || st.PromotedAt != 6*sim.Microsecond {
		t.Fatalf("promoted at %v (%d promotions), want 6us", st.PromotedAt, st.Promotions)
	}
	if !pair.Alive() {
		t.Fatal("promoted standby not serving")
	}
	// The packet died with the primary: the standby never saw it, so the
	// sender's retransmission is applied fresh, exactly once.
	if pair.Seen(1) {
		t.Fatal("discarded packet reported as seen")
	}
	if err := pair.Submit(1, seqPkt(1), commitFunc(func([]*packet.Packet) { committed = true })); err != nil {
		t.Fatal(err)
	}
	if !committed || !pair.Seen(1) || !pair.Committed(1) {
		t.Fatal("standby submit did not commit synchronously")
	}
	if pri.applied[1] != 1 || sby.applied[1] != 1 {
		t.Fatalf("applied primary %d standby %d, want 1/1", pri.applied[1], sby.applied[1])
	}
}

func TestPromotionWaitsForInFlightDeltas(t *testing.T) {
	opt := ha.Options{ReplDelay: sim.Microsecond} // FailoverDelay 0: barrier is the in-flight log
	eng, pair, _, sby := newTestPair(t, opt)
	if err := pair.Submit(1, seqPkt(1), commitFunc(func([]*packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	// Crash after the ship (t=0) but before the delta lands (t=1us).
	eng.Schedule(100*sim.Nanosecond, pair.Crash)
	eng.Schedule(100*sim.Nanosecond, func() {
		if pair.Alive() {
			t.Error("pair alive during failover")
		}
	})
	eng.Run()
	st := pair.Stats()
	if st.PromotedAt != sim.Microsecond {
		t.Fatalf("promoted at %v, want the in-flight delta's arrival at 1us", st.PromotedAt)
	}
	if st.ReplayDepth != 1 {
		t.Fatalf("replay depth %d, want 1", st.ReplayDepth)
	}
	// By promotion time the delta has been applied: a retransmission of
	// packet 1 reaching the standby is suppressed, not double-applied.
	if !pair.Seen(1) {
		t.Fatal("in-flight delta not applied before promotion")
	}
	if sby.applied[1] != 1 {
		t.Fatalf("standby applied %d times", sby.applied[1])
	}
}

func TestStandbyCrashLeavesNoReplica(t *testing.T) {
	eng, pair, _, _ := newTestPair(t, ha.Options{})
	pair.Crash() // primary
	eng.Run()
	if !pair.Alive() {
		t.Fatal("standby not promoted")
	}
	pair.Crash() // the promoted standby
	if pair.Alive() {
		t.Fatal("pair alive with both replicas dead")
	}
	if st := pair.Stats(); st.Promotions != 1 {
		t.Fatalf("promotions %d", st.Promotions)
	}
}

func TestErroredSubmitBooksImmediately(t *testing.T) {
	eng, pair, pri, _ := newTestPair(t, ha.DefaultOptions())
	pri.err = errFake
	commitCalled := false
	err := pair.Submit(1, seqPkt(1), commitFunc(func([]*packet.Packet) { commitCalled = true }))
	if err == nil {
		t.Fatal("replica error swallowed")
	}
	// Deterministic errors are booked at process time: the packet is seen
	// and ackable immediately, and its commit callback never fires.
	if !pair.Seen(1) || !pair.Committed(1) {
		t.Fatal("errored packet not booked")
	}
	eng.Run()
	if commitCalled {
		t.Fatal("commit fired for an errored packet")
	}
	// The delta still ships so the standby reproduces the error and the
	// replicas stay identical.
	if st := pair.Stats(); st.DeltasShipped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake replica error" }

// The per-uid index takes Submit's uids for a dense sequence. Out-of-order
// arrival within a run's worth of packets is that sequence; a uid from some
// other numbering is a caller bug, named instead of served with gigabytes.
func TestSubmitPanicsOnSparseUID(t *testing.T) {
	eng, pair, pri, _ := newTestPair(t, ha.DefaultOptions())
	for _, uid := range []uint64{70_000, 3, 0, 0} { // late, early, and the no-recovery caller's constant
		if err := pair.Submit(uid, seqPkt(uint32(uid)), commitFunc(func([]*packet.Packet) {})); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if !pair.Seen(70_000) || !pair.Committed(3) || pair.Seen(69_999) || pair.Seen(1<<40) || pri.applied[0] != 2 {
		t.Fatal("out-of-order uids were not booked one by one")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "dense send sequence") {
			t.Fatalf("Submit of a hashed uid: %s", msg)
		}
	}()
	pair.Submit(0x9e3779b97f4a7c15, seqPkt(9), commitFunc(func([]*packet.Packet) {}))
	t.Fatal("Submit of a hashed uid returned")
}
