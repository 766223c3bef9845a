package netsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/sim"
)

// sumSwitch is a stateful echo switch: it accumulates every packet's Seq
// and counts per-Seq applications, so a lost or double-applied state
// update is directly visible in the final state — the property the
// replication plane must preserve across a crash.
type sumSwitch struct {
	sum     uint64
	applied map[uint32]int
}

func newSumSwitch() *sumSwitch { return &sumSwitch{applied: map[uint32]int{}} }

func (s *sumSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	s.sum += uint64(d.Base.Seq)
	s.applied[d.Base.Seq]++
	p.EgressPort = int(d.Base.DstPort)
	return []*packet.Packet{p}, nil
}

func seqPkt(src, dst, coflow int, seq uint32) *packet.Packet {
	return packet.BuildRaw(packet.Header{
		DstPort: uint16(dst), SrcPort: uint16(src), CoflowID: uint32(coflow), Seq: seq,
	}, 100)
}

// haConfig wires a warm standby with recovery into a small network.
func haConfig(hosts int, standby SwitchModel, opt ha.Options, crashAt sim.Time) Config {
	cfg := DefaultConfig(hosts)
	cfg.Recovery = recovery()
	cfg.Standby = standby
	cfg.HA = &opt
	if crashAt > 0 {
		cfg.Faults = &faults.Plan{SwitchCrashAt: crashAt}
	}
	return cfg
}

// sendSeqLoad injects pkts sequenced packets on coflow 1 and registers the
// tracker expectation. Returns the expected Seq sum.
func sendSeqLoad(n *Network, hosts, pkts int) uint64 {
	n.Tracker().Expect(1, pkts)
	var want uint64
	for i := 0; i < pkts; i++ {
		src := i % hosts
		n.SendAt(src, seqPkt(src, (i+1)%hosts, 1, uint32(i+1)), sim.Time(i)*sim.Microsecond)
		want += uint64(i + 1)
	}
	return want
}

// TestFailoverExactlyOnceAcrossCrashGrid is the adversarial-time sweep:
// the switch is killed at every phase of the run (before traffic, during
// the bulk, near the tail) under both immediate and batched replication,
// and in every case the coflow must complete with each packet's state
// applied exactly once on the surviving replica. The conservation ledger
// (asserted by Run) pins the boundary accounting: every arrival is
// processed, suppressed, or crash-dropped, never double-processed.
func TestFailoverExactlyOnceAcrossCrashGrid(t *testing.T) {
	const (
		hosts = 4
		pkts  = 24
	)
	// Baseline (no standby, no faults) fixes the completion time the
	// crash grid spans.
	base, err := New(DefaultConfig(hosts), newSumSwitch())
	if err != nil {
		t.Fatal(err)
	}
	sendSeqLoad(base, hosts, pkts)
	base.Run()
	if !base.Tracker().Done(1) {
		t.Fatal("baseline incomplete")
	}
	horizon := base.Now()

	for _, syncIv := range []sim.Time{0, 2 * sim.Microsecond} {
		for frac := 5; frac <= 95; frac += 10 {
			frac := frac
			name := fmt.Sprintf("sync=%v/crash=%d%%", syncIv, frac)
			t.Run(name, func(t *testing.T) {
				standby := newSumSwitch()
				opt := ha.DefaultOptions()
				opt.SyncInterval = syncIv
				crashAt := horizon * sim.Time(frac) / 100
				n, err := New(haConfig(hosts, standby, opt, crashAt), newSumSwitch())
				if err != nil {
					t.Fatal(err)
				}
				want := sendSeqLoad(n, hosts, pkts)
				n.Run()
				if errs := n.Errors(); len(errs) != 0 {
					t.Fatalf("errors: %v\nledger %+v", errs, n.Ledger())
				}
				if !n.Tracker().Done(1) {
					t.Fatalf("coflow incomplete: %+v\nledger %+v\nha %+v",
						n.Tracker().Status(1), n.Ledger(), n.HA().Stats())
				}
				st := n.HA().Stats()
				if st.Promotions != 1 {
					t.Fatalf("promotions %d after crash at %v", st.Promotions, crashAt)
				}
				// Exactly-once on the surviving replica: every packet's
				// state landed once — via delta replay or via redirected
				// retransmission — and never twice.
				if standby.sum != want {
					t.Fatalf("standby sum %d, want %d (lost or double-applied state)\nledger %+v\nha %+v",
						standby.sum, want, n.Ledger(), st)
				}
				for seq, c := range standby.applied {
					if c != 1 {
						t.Fatalf("packet %d applied %d times on the standby", seq, c)
					}
				}
				if len(standby.applied) != pkts {
					t.Fatalf("standby saw %d of %d packets", len(standby.applied), pkts)
				}
			})
		}
	}
}

// TestFailoverNoCrashInvisible: with a standby configured but no crash,
// the run completes and the standby converges to the primary's exact
// state (sum and per-packet counts) purely through delta replay.
func TestFailoverNoCrashInvisible(t *testing.T) {
	const (
		hosts = 4
		pkts  = 16
	)
	primary, standby := newSumSwitch(), newSumSwitch()
	n, err := New(haConfig(hosts, standby, ha.DefaultOptions(), 0), primary)
	if err != nil {
		t.Fatal(err)
	}
	want := sendSeqLoad(n, hosts, pkts)
	n.Run()
	if errs := n.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if !n.Tracker().Done(1) {
		t.Fatal("coflow incomplete")
	}
	if primary.sum != want || standby.sum != want {
		t.Fatalf("primary %d standby %d, want %d", primary.sum, standby.sum, want)
	}
	if !reflect.DeepEqual(primary.applied, standby.applied) {
		t.Fatal("replicas diverged without a crash")
	}
	st := n.HA().Stats()
	if st.DeltasShipped != pkts || st.DeltasApplied != pkts || st.Promotions != 0 {
		t.Fatalf("ha stats %+v", st)
	}
}

// TestFailoverRunsAreDeterministic: the same replicated, crashed
// configuration produces byte-identical ledgers and HA accounting.
func TestFailoverRunsAreDeterministic(t *testing.T) {
	run := func() (Ledger, ha.Stats, uint64) {
		standby := newSumSwitch()
		opt := ha.DefaultOptions()
		opt.SyncInterval = sim.Microsecond
		n, err := New(haConfig(4, standby, opt, 7*sim.Microsecond), newSumSwitch())
		if err != nil {
			t.Fatal(err)
		}
		sendSeqLoad(n, 4, 16)
		n.Run()
		if errs := n.Errors(); len(errs) != 0 {
			t.Fatalf("errors: %v", errs)
		}
		return n.Ledger(), n.HA().Stats(), standby.sum
	}
	l1, s1, sum1 := run()
	l2, s2, sum2 := run()
	if l1 != l2 {
		t.Fatalf("ledgers differ:\n%+v\n%+v", l1, l2)
	}
	if s1 != s2 {
		t.Fatalf("ha stats differ:\n%+v\n%+v", s1, s2)
	}
	if sum1 != sum2 {
		t.Fatalf("standby sums differ: %d vs %d", sum1, sum2)
	}
}

// TestReplicaSnapshotsConverge replicates a real core.Switch and proves
// the strongest form of replica equality: after a fault-free replicated
// run, the primary's and the standby's canonical checkpoints are
// byte-identical — state, counters, coflow directory, everything.
func TestReplicaSnapshotsConverge(t *testing.T) {
	build := func() *core.Switch {
		cfg := core.DefaultConfig()
		cfg.Ports = 8
		cfg.DemuxFactor = 2
		cfg.CentralPipelines = 4
		cfg.EgressPipelines = 2
		pipe := cfg.Pipe
		pipe.Stages = 4
		cfg.Pipe = pipe
		sw, err := core.New(cfg, core.Programs{})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	primary, standby := build(), build()
	n, err := New(haConfig(8, standby, ha.DefaultOptions(), 0), primary)
	if err != nil {
		t.Fatal(err)
	}
	n.Tracker().Expect(3, 16)
	for i := 0; i < 16; i++ {
		n.SendAt(i%8, seqPkt(i%8, (i+3)%8, 3, uint32(i+1)), sim.Time(i)*sim.Microsecond)
	}
	n.Run()
	if errs := n.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	snapPri, err := ha.Capture(primary)
	if err != nil {
		t.Fatal(err)
	}
	snapSby, err := ha.Capture(standby)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapPri, snapSby) {
		t.Fatalf("replica snapshots diverged (%d vs %d bytes)", len(snapPri), len(snapSby))
	}
}

// TestCrashWithoutStandbyDropsDead: the degenerate case — no standby
// configured. Arrivals after the crash die at the port with CrashDrops
// accounting, senders abort on budget, and conservation still balances.
func TestCrashWithoutStandbyDropsDead(t *testing.T) {
	rec := faults.DefaultRecovery()
	rec.Timeout = 5 * sim.Microsecond
	rec.MaxRetries = 2
	cfg := DefaultConfig(2)
	cfg.Recovery = &rec
	cfg.Faults = &faults.Plan{SwitchCrashAt: sim.Microsecond}
	n, err := New(cfg, echoSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	n.SendAt(0, rawPkt(0, 1, 1), 0)                 // arrives before the crash
	n.SendAt(0, rawPkt(0, 1, 1), 2*sim.Microsecond) // arrives after
	n.Run()
	if len(n.Errors()) != 0 {
		t.Fatalf("errors: %v", n.Errors())
	}
	led := n.Ledger()
	if n.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", n.Delivered())
	}
	if led.CrashDrops == 0 || led.TxAborted != 1 {
		t.Fatalf("ledger %+v", led)
	}
}

// seqLogSwitch is a sumSwitch that also appends every Seq it is handed to a
// log shared with its peer replica.
type seqLogSwitch struct {
	*sumSwitch
	log *[]uint32
}

func (s seqLogSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		return nil, err
	}
	*s.log = append(*s.log, d.Base.Seq)
	return s.sumSwitch.Process(p)
}

// TestUIDsAreDense pins the one fact ha.Pair's per-uid index rests on: the
// uids Submit is handed are the send sequence itself. Through 5 % loss,
// retransmissions, batched replication, a crash and a promotion, the i-th
// packet to enter the network is submitted as uid i — checked after every
// event against what the replicas were just handed — startSend spends one
// uid per original packet and none on a retransmission, the pair never
// hears of a uid that has not been handed out, and at the end it has seen
// and committed exactly 0…Injected()-1. A startSend that numbered packets
// any other way (per host, per attempt, by hash) fails here before it costs
// the pair memory.
func TestUIDsAreDense(t *testing.T) {
	const (
		hosts = 4
		pkts  = 200 // sendSeqLoad sends the packet with Seq i+1 i-th, so its uid is i
	)
	var processed []uint32
	opt := ha.DefaultOptions()
	opt.SyncInterval = 2 * sim.Microsecond
	cfg := haConfig(hosts, seqLogSwitch{newSumSwitch(), &processed}, opt, 0)
	cfg.Faults = &faults.Plan{
		Seed:          3,
		Link:          faults.LinkFaults{LossRate: 0.05},
		SwitchCrashAt: 80 * sim.Microsecond,
	}
	n, err := New(cfg, seqLogSwitch{newSumSwitch(), &processed})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	check := func() {
		if n.txSeq != n.injected {
			t.Fatalf("%d uids handed out for %d packets sent", n.txSeq, n.injected)
		}
		for _, seq := range processed[checked:] {
			if uid := uint64(seq - 1); !n.pair.Seen(uid) {
				t.Fatalf("the packet sent %d-th reached a replica and uid %d is unseen: it was submitted under another uid", uid, uid)
			}
		}
		checked = len(processed)
		for uid := n.txSeq; uid < n.txSeq+8; uid++ {
			if n.pair.Seen(uid) || n.pair.Committed(uid) {
				t.Fatalf("the pair knows uid %d and only %d have been handed out", uid, n.txSeq)
			}
		}
	}
	n.eng.AddDispatchHook(func(sim.Time, int, uint64) { check() })
	sendSeqLoad(n, hosts, pkts)
	n.Run()
	check()
	if errs := n.Errors(); len(errs) != 0 || !n.Tracker().Done(1) || n.Injected() != pkts {
		t.Fatalf("errors %v, coflow %+v, injected %d", errs, n.Tracker().Status(1), n.Injected())
	}
	led, st := n.Ledger(), n.pair.Stats()
	if led.UplinkRetx == 0 || led.CrashDrops == 0 || st.Promotions != 1 || st.DiscardedDeltas == 0 || st.DeltasApplied == 0 {
		t.Fatalf("the run exercised no retransmission, crash or promotion: ledger %+v, ha %+v", led, st)
	}
	for uid := uint64(0); uid < n.Injected(); uid++ {
		if !n.pair.Seen(uid) || !n.pair.Committed(uid) {
			t.Fatalf("uid %d of %d: seen %v, committed %v", uid, n.Injected(), n.pair.Seen(uid), n.pair.Committed(uid))
		}
	}
}

// TestSenderStateReuse: a sender's retransmission state is reused once its
// packet was acked or abandoned and no event record or engine link points at
// it, so a round cuts fresh states only for the packets in flight at once.
// The round crashes a batching primary with deltas pending: the records of
// those arrivals come back only through Committer.Discard, and one that did
// not would pin its state, and every retransmitted state retired behind it,
// for the rest of the round.
func TestSenderStateReuse(t *testing.T) {
	const (
		hosts = 8
		pkts  = 2000
	)
	cfg := haConfig(hosts, newSumSwitch(), ha.Options{SyncInterval: 2 * sim.Microsecond}, 0)
	cfg.Faults = &faults.Plan{
		Seed:          7,
		Link:          faults.LinkFaults{LossRate: 0.1},
		SwitchCrashAt: 100 * sim.Microsecond,
	}
	n, err := New(cfg, newSumSwitch())
	if err != nil {
		t.Fatal(err)
	}
	sendSeqLoad(n, hosts, pkts)
	n.Run()
	if errs := n.Errors(); len(errs) != 0 || !n.Tracker().Done(1) {
		t.Fatalf("errors %v, coflow %+v", errs, n.Tracker().Status(1))
	}
	led, st := n.Ledger(), n.pair.Stats()
	if st.DiscardedDeltas == 0 || st.Promotions != 1 || led.UplinkRetx == 0 {
		t.Fatalf("the round discarded no delta or retransmitted nothing: ledger %+v, ha %+v", led, st)
	}
	t.Logf("%d of %d sends cut a fresh state (%d retransmissions, %d deltas discarded)",
		n.txCut, n.injected, led.UplinkRetx, st.DiscardedDeltas)
	if max := n.injected * 15 / 100; uint64(n.txCut) > max {
		t.Errorf("%d of %d sends cut a fresh state, want at most %d (15 %%)", n.txCut, n.injected, max)
	}
}
