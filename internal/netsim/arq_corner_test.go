package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// ARQ corner cases: deterministic down-windows are placed over the exact
// instants acks cross the wire (the data attempts dodge them), so each
// test forces one specific interleaving instead of fishing with seeds.
// Timing recap for a 100-byte packet on the default 100 Gbps / 500 ns
// config: serialization ≈ 10 ns, switch arrival ≈ 510 ns after send, acks
// consult the injector at the arrival instant.

// tightRecovery: one 20 µs timeout per attempt, no backoff growth.
func tightRecovery(maxRetries int) *faults.Recovery {
	return &faults.Recovery{
		Timeout:    20 * sim.Microsecond,
		Backoff:    1,
		MaxTimeout: 20 * sim.Microsecond,
		MaxRetries: maxRetries,
	}
}

// TestAckLostOnFinalRetryAborts pins the nastiest ARQ ending: the final
// permitted retry reaches the switch, is suppressed as a duplicate, and
// its re-ack is lost too — the sender exhausts its budget and aborts a
// packet the network actually delivered. The books must show exactly
// that: one delivery, one suppressed duplicate, two lost acks, one abort,
// and a balanced ledger.
func TestAckLostOnFinalRetryAborts(t *testing.T) {
	// Window A kills the original's ack (~510 ns); window B kills the
	// retry's re-ack (~20.52 µs) while letting the retry itself (starting
	// ~20.01 µs) through.
	plan := &faults.Plan{
		PerLink: map[int]faults.LinkFaults{
			0: {Down: []faults.Window{
				{From: 100 * sim.Nanosecond, To: sim.Microsecond},
				{From: 20100 * sim.Nanosecond, To: 21 * sim.Microsecond},
			}},
		},
	}
	n, err := New(faultyConfig(2, plan, tightRecovery(1)), echoSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	n.Tracker().Expect(1, 1)
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.Run()
	if len(n.Errors()) != 0 {
		t.Fatalf("errors: %v", n.Errors())
	}
	led := n.Ledger()
	if n.Delivered() != 1 || !n.Tracker().Done(1) {
		t.Fatalf("delivered %d, done %v", n.Delivered(), n.Tracker().Done(1))
	}
	if led.AcksLost != 2 {
		t.Fatalf("acks lost %d, want 2 (windows missed the ack instants)\nledger %+v", led.AcksLost, led)
	}
	if led.UplinkRetx != 1 || led.DupSuppressed != 1 {
		t.Fatalf("retx %d dup %d, want 1/1\nledger %+v", led.UplinkRetx, led.DupSuppressed, led)
	}
	if led.TxAborted != 1 {
		t.Fatalf("aborted %d, want 1 (budget should exhaust after the lost re-ack)\nledger %+v", led.TxAborted, led)
	}
	if led.SwitchProcessed != 1 {
		t.Fatalf("switch processed %d, want exactly 1", led.SwitchProcessed)
	}
}

// TestSwitchCrashDuringSendDeferral: the sender's host is down across the
// switch crash, so its packet enters the network only after failover —
// via the send-deferral path, not a retransmission. The deferred send
// must reach the promoted standby and complete.
func TestSwitchCrashDuringSendDeferral(t *testing.T) {
	plan := &faults.Plan{
		Hosts:         map[int]faults.HostFaults{0: {Crash: []faults.Window{{From: 0, To: 30 * sim.Microsecond}}}},
		SwitchCrashAt: 10 * sim.Microsecond,
	}
	standby := newSumSwitch()
	cfg := faultyConfig(2, plan, recovery())
	cfg.Standby = standby
	n, err := New(cfg, newSumSwitch())
	if err != nil {
		t.Fatal(err)
	}
	n.Tracker().Expect(1, 1)
	n.SendAt(0, seqPkt(0, 1, 1, 42), sim.Microsecond)
	n.Run()
	if len(n.Errors()) != 0 {
		t.Fatalf("errors: %v", n.Errors())
	}
	led := n.Ledger()
	if led.SendDeferrals != 1 {
		t.Fatalf("send deferrals %d, want 1\nledger %+v", led.SendDeferrals, led)
	}
	st := n.HA().Stats()
	if st.Promotions != 1 || st.PromotedAt >= 30*sim.Microsecond {
		t.Fatalf("standby not promoted before the deferred send: %+v", st)
	}
	// The deferred packet never touched the primary — it was applied
	// exactly once, directly on the standby.
	if standby.applied[42] != 1 || led.CrashDrops != 0 || led.DupSuppressed != 0 {
		t.Fatalf("standby applied %d, ledger %+v", standby.applied[42], led)
	}
	if !n.Tracker().Done(1) {
		t.Fatalf("coflow incomplete: %+v", n.Tracker().Status(1))
	}
}

// TestDuplicateRacesCoflowEviction: a duplicate of coflow A's packet
// arrives after coflow B evicted A from the switch's bounded directory
// (MaxActiveCoflows). Boundary dedup must suppress it before the switch
// program — a leaked duplicate would readmit the evicted coflow and
// corrupt the eviction accounting.
func TestDuplicateRacesCoflowEviction(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
	cfg.MaxActiveCoflows = 1
	sw, err := core.New(cfg, core.Programs{})
	if err != nil {
		t.Fatal(err)
	}
	// Lose the ack of coflow 1's packet (arrival ~510 ns); coflow 2's
	// packet (sent at 2 µs from an unaffected host) then evicts coflow 1;
	// coflow 1's retransmission lands ~20.5 µs later as a duplicate.
	plan := &faults.Plan{
		PerLink: map[int]faults.LinkFaults{
			0: {Down: []faults.Window{{From: 100 * sim.Nanosecond, To: sim.Microsecond}}},
		},
	}
	n, err := New(faultyConfig(8, plan, recovery()), sw)
	if err != nil {
		t.Fatal(err)
	}
	n.Tracker().Expect(1, 1)
	n.Tracker().Expect(2, 1)
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.SendAt(2, rawPkt(2, 3, 2), 2*sim.Microsecond)
	n.Run()
	if len(n.Errors()) != 0 {
		t.Fatalf("errors: %v", n.Errors())
	}
	led := n.Ledger()
	if led.DupSuppressed != 1 {
		t.Fatalf("dup suppressed %d, want 1\nledger %+v", led.DupSuppressed, led)
	}
	if sw.CoflowEvictions() != 1 {
		t.Fatalf("evictions %d, want 1 (coflow 2 should have evicted coflow 1)", sw.CoflowEvictions())
	}
	// The race's failure mode: the duplicate reaching the program would
	// count as a readmission of the evicted coflow.
	if sw.CoflowReadmissions() != 0 {
		t.Fatalf("readmissions %d — the suppressed duplicate leaked into the switch", sw.CoflowReadmissions())
	}
	if led.SwitchProcessed != 2 {
		t.Fatalf("switch processed %d, want 2", led.SwitchProcessed)
	}
	if !n.Tracker().Done(1) || !n.Tracker().Done(2) {
		t.Fatal("coflows incomplete")
	}
}

// TestRetiredStateWaitsForItsRecords: a sender's state is not reused while an
// event record still points at it, however idle its timer. Packet A reaches
// a stalled switch, its arrival is held to the stall's end, and its only
// attempt times out meanwhile: A is abandoned with its timer fired and its
// arrival record pending. Packet B, sent next, must get a state of its own —
// on A's, A's held arrival would be taken for B's and B's for a duplicate.
// (B's attempt is abandoned behind the stall too; both still arrive.)
func TestRetiredStateWaitsForItsRecords(t *testing.T) {
	plan := &faults.Plan{SwitchStall: []faults.Window{{From: 100 * sim.Nanosecond, To: 100 * sim.Microsecond}}}
	n, err := New(faultyConfig(4, plan, tightRecovery(0)), echoSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	n.SendAt(0, rawPkt(0, 1, 1), 0)
	n.SendAt(2, rawPkt(2, 3, 2), 30*sim.Microsecond)
	n.Run()
	led := n.Ledger()
	if led.TxAborted != 2 || led.StallDeferrals != 2 {
		t.Fatalf("want both packets abandoned and both arrivals held by the stall\nledger %+v", led)
	}
	if n.txCut != 2 || led.DupSuppressed != 0 || len(n.Host(1).Received) != 1 || len(n.Host(3).Received) != 1 {
		t.Fatalf("%d states cut, %d duplicates suppressed, hosts 1 and 3 received %d and %d; want 2, 0, 1, 1",
			n.txCut, led.DupSuppressed, len(n.Host(1).Received), len(n.Host(3).Received))
	}
}
