package netsim

import (
	"bytes"
	"hash/maphash"
	"testing"

	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ByteGuard holds switches to the byte half of the ownership rule (see
// packet.Arena): a packet's bytes are never written once handed over. The
// bytes a guarded switch is handed are hashed at their first hand-off and
// must hash the same when Process returns and at every later hand-off of
// the same bytes — a retransmission, a standby's replay. A switch that has
// to change them takes a copy of its own first. Wrap a primary and its
// standby in one guard to check the replay against the primary's hand-off.
type ByteGuard struct {
	t    testing.TB
	seed maphash.Seed
	sums map[*byte]uint64 // by the bytes' first element
	// Handoffs counts Process calls; Repeats those whose bytes an earlier
	// call had already been handed.
	Handoffs, Repeats int
}

// NewByteGuard returns a guard reporting violations to t.
func NewByteGuard(t testing.TB) *ByteGuard {
	return &ByteGuard{t: t, seed: maphash.MakeSeed(), sums: map[*byte]uint64{}}
}

// Wrap returns sw with every Process checked by the guard.
func (g *ByteGuard) Wrap(sw SwitchModel) SwitchModel { return guarded{g, sw} }

type guarded struct {
	g  *ByteGuard
	sw SwitchModel
}

func (w guarded) Process(p *packet.Packet) ([]*packet.Packet, error) {
	g, data := w.g, p.Data
	sum := maphash.Bytes(g.seed, data)
	g.Handoffs++
	if first, ok := g.sums[&data[0]]; ok {
		g.Repeats++
		if sum != first {
			g.t.Errorf("bytes handed over before were written ahead of hand-off %d", g.Handoffs)
		}
	} else {
		g.sums[&data[0]] = sum
	}
	outs, err := w.sw.Process(p)
	if maphash.Bytes(g.seed, data) != sum {
		g.t.Errorf("the switch wrote the bytes of hand-off %d", g.Handoffs)
	}
	return outs, err
}

// scribbleSwitch is the worst tenant the ownership rule allows: it checks
// every packet it is handed against the bytes its sender built, answers
// with a fresh packet, then overwrites every field of the struct it was
// given and keeps it for ever.
type scribbleSwitch struct {
	t       *testing.T
	name    string
	want    map[uint32][]byte // original bytes by Seq
	kept    []*packet.Packet
	applied map[uint32]int
}

func (s *scribbleSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	var d packet.Decoded
	if err := d.DecodePacket(p); err != nil {
		s.t.Errorf("%s: handed an undecodable packet: %v", s.name, err)
		return nil, err
	}
	if !bytes.Equal(p.Data, s.want[d.Base.Seq]) {
		s.t.Errorf("%s: packet %d arrived with bytes another holder wrote", s.name, d.Base.Seq)
	}
	s.applied[d.Base.Seq]++
	out := packet.BuildRaw(d.Base, 100)
	out.EgressPort = int(d.Base.DstPort)
	p.IngressPort, p.EgressPort, p.Recirculations = -7, -7, -7
	s.kept = append(s.kept, p)
	return []*packet.Packet{out}, nil
}

// checkKept verifies nobody rewrote, or re-issued, a struct the switch
// retained, nor wrote the bytes under it.
func (s *scribbleSwitch) checkKept() {
	seen := make(map[*packet.Packet]bool, len(s.kept))
	var d packet.Decoded
	for i, p := range s.kept {
		if seen[p] {
			s.t.Errorf("%s: the same struct was handed over twice (kept %d)", s.name, i)
		}
		seen[p] = true
		if p.IngressPort != -7 || p.EgressPort != -7 || p.Recirculations != -7 {
			s.t.Errorf("%s: kept packet %d had its fields rewritten", s.name, i)
		}
		if err := d.DecodePacket(p); err != nil || !bytes.Equal(p.Data, s.want[d.Base.Seq]) {
			s.t.Errorf("%s: kept packet %d had its bytes written after hand-off", s.name, i)
		}
	}
}

// TestHandedOverPacketsAreNeverReused is the ownership rule under the
// conditions that recycle the most records: link loss (retransmissions,
// redeliveries), a warm standby (logged packets, replayed batches) and a
// mid-run crash (discarded log, senders redirected). Both replicas rewrite
// the fields of, and retain, every struct they are given, and one ByteGuard
// watches both. Every hand-off must still carry the sender's bytes — the
// sender's copy, each retransmission and each logged delta share them, and
// nobody writes them — and every struct the replicas kept must still hold
// their rewrite after the run, so neither netsim nor ha wrote to or
// re-issued a struct it had handed out.
func TestHandedOverPacketsAreNeverReused(t *testing.T) {
	const (
		hosts = 4
		pkts  = 600
	)
	want := make(map[uint32][]byte, pkts)
	newSwitch := func(name string) *scribbleSwitch {
		return &scribbleSwitch{t: t, name: name, want: want, applied: map[uint32]int{}}
	}
	primary, standby := newSwitch("primary"), newSwitch("standby")
	opt := ha.DefaultOptions()
	opt.SyncInterval = 2 * sim.Microsecond // batches of several deltas
	guard := NewByteGuard(t)
	cfg := haConfig(hosts, guard.Wrap(standby), opt, 0)
	cfg.Faults = &faults.Plan{
		Seed:          3,
		Link:          faults.LinkFaults{LossRate: 0.2, CorruptRate: 0.05},
		SwitchCrashAt: 45 * sim.Microsecond, // first retransmissions (RTO 20 µs) are in flight
	}
	n, err := New(cfg, guard.Wrap(primary))
	if err != nil {
		t.Fatal(err)
	}
	n.Tracker().Expect(1, pkts)
	var delivered []*packet.Packet
	n.OnDeliver = func(_ int, p *packet.Packet, _ sim.Time) { delivered = append(delivered, p) }
	for i := 0; i < pkts; i++ {
		src := i % hosts
		p := seqPkt(src, (i+1)%hosts, 1, uint32(i+1))
		want[uint32(i+1)] = append([]byte(nil), p.Data...)
		n.SendAt(src, p, sim.Time(i)*100*sim.Nanosecond)
	}
	n.Run()
	if errs := n.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	led, st := n.Ledger(), n.HA().Stats()
	if !n.Tracker().Done(1) || st.Promotions != 1 {
		t.Fatalf("coflow done %v, promotions %d\nledger %+v\nha %+v", n.Tracker().Done(1), st.Promotions, led, st)
	}
	if led.UplinkRetx == 0 || led.DownlinkRetx == 0 || led.CrashDrops == 0 || st.DeltasApplied == 0 || st.DiscardedDeltas == 0 || guard.Repeats == 0 {
		t.Fatalf("the run did not exercise every recycling path:\nledger %+v\nha %+v", led, st)
	}
	for seq := uint32(1); seq <= pkts; seq++ {
		if standby.applied[seq] != 1 {
			t.Fatalf("packet %d applied %d times on the surviving replica", seq, standby.applied[seq])
		}
	}
	primary.checkKept()
	standby.checkKept()
	// Deliveries are handed over too (Host.Received, OnDeliver): a
	// redelivered output is the same packet, never a rewritten one.
	for i, p := range delivered {
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil || len(d.Payload) != 100 || p.EgressPort != int(d.Base.DstPort) {
			t.Fatalf("delivery %d was altered after the switch emitted it (err %v)", i, err)
		}
	}
}
