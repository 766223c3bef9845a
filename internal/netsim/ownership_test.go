package netsim

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/ha"
	"repro/internal/packet"
	"repro/internal/sim"
)

// scribbleSwitch is the worst tenant the ownership rule allows: it checks
// every packet it is handed against the bytes its sender built, answers
// with a fresh packet, then overwrites every byte and field of what it was
// given and keeps it for ever.
type scribbleSwitch struct {
	t       *testing.T
	name    string
	want    map[uint32][]byte // original bytes by Seq
	kept    []*packet.Packet
	applied map[uint32]int
}

const scribble = 0xEE

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
	for i := range p.Data {
		p.Data[i] = scribble
	}
	p.IngressPort, p.EgressPort, p.Recirculations = -7, -7, -7
	s.kept = append(s.kept, p)
	return []*packet.Packet{out}, nil
}

// checkKept verifies nobody wrote to, or re-issued, a packet the switch
// retained.
func (s *scribbleSwitch) checkKept() {
	seen := make(map[*packet.Packet]bool, len(s.kept))
	for i, p := range s.kept {
		if seen[p] {
			s.t.Errorf("%s: the same packet was handed over twice (kept %d)", s.name, i)
		}
		seen[p] = true
		if p.IngressPort != -7 || p.EgressPort != -7 || p.Recirculations != -7 {
			s.t.Errorf("%s: kept packet %d had its fields rewritten", s.name, i)
		}
		for _, b := range p.Data {
			if b != scribble {
				s.t.Errorf("%s: kept packet %d was written after the switch took it", s.name, i)
				break
			}
		}
	}
}

// TestHandedOverPacketsAreNeverReused is the ownership rule under the
// conditions that recycle the most records: link loss (retransmitted
// copies, redeliveries), a warm standby (logged copies, replayed batches)
// and a mid-run crash (discarded log, senders redirected). Both replicas
// scribble over and retain everything they are given. Every copy that
// reaches either must still carry the sender's bytes — the pristine copy,
// each retransmission and each logged delta are separate memory — and
// everything the replicas kept must still hold the scribble after the run,
// so neither netsim nor ha wrote to or re-issued a packet it had handed out.
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
	cfg := haConfig(hosts, standby, opt, 0)
	cfg.Faults = &faults.Plan{
		Seed:          3,
		Link:          faults.LinkFaults{LossRate: 0.2, CorruptRate: 0.05},
		SwitchCrashAt: 45 * sim.Microsecond, // first retransmissions (RTO 20 µs) are in flight
	}
	n, err := New(cfg, primary)
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
	if led.UplinkRetx == 0 || led.DownlinkRetx == 0 || led.CrashDrops == 0 || st.DeltasApplied == 0 || st.DiscardedDeltas == 0 {
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
