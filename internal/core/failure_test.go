package core

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/pipeline"
)

// Failure-injection tests: buffer exhaustion, malformed packets, and
// program misbehavior must degrade with accounting, never corrupt state.

func TestTM1OverflowDropsWithAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.TM1BufferBytes = packet.MinWireLen // one packet
	s, err := New(cfg, Programs{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	// Accept two packets without flushing: second one must tail-drop.
	for i := 0; i < 2; i++ {
		if err := s.Accept(rawPkt(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.TM1().Dropped() != 1 {
		t.Errorf("TM1 drops = %d, want 1", s.TM1().Dropped())
	}
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("delivered %d, want 1 survivor", len(out))
	}
}

func TestTM2OverflowDropsWithAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.TM2BufferBytes = packet.MinWireLen
	s, err := New(cfg, Programs{})
	if err != nil {
		t.Fatal(err)
	}
	// Two packets to the same egress pipeline in one flush.
	if err := s.Accept(rawPkt(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept(rawPkt(1, 2)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out)+int(s.TM2().Dropped()) != 2 {
		t.Errorf("delivered %d + dropped %d != 2", len(out), s.TM2().Dropped())
	}
	if s.TM2().Dropped() == 0 {
		t.Error("no TM2 drop under a one-packet budget")
	}
}

func TestMalformedPacketRejectedCleanly(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &packet.Packet{Data: []byte{0xDE, 0xAD}, IngressPort: 0}
	if _, err := s.Process(bad); err == nil {
		t.Error("malformed packet accepted")
	}
	// The switch still works afterwards.
	out, err := s.Process(rawPkt(0, 3))
	if err != nil || len(out) != 1 {
		t.Errorf("switch wedged after malformed packet: %v %v", out, err)
	}
}

func TestCentralMulticast(t *testing.T) {
	prog := Programs{Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Multicast = []int{0, 3, 5, 7} // spans both egress pipelines
			return nil
		},
	}}}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	in := rawPkt(2, 1)
	wire := bytes.Clone(in.Data)
	out, err := s.Process(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("multicast delivered %d, want 4", len(out))
	}
	// Each replica is a struct of its own, with its own EgressPort, over
	// the bytes the sender built: nobody wrote them.
	seen := map[int]bool{}
	structs := map[*packet.Packet]bool{}
	for _, p := range out {
		seen[p.EgressPort] = true
		structs[p] = true
		if !bytes.Equal(p.Data, wire) {
			t.Errorf("replica on port %d carries other bytes", p.EgressPort)
		}
	}
	for _, want := range []int{0, 3, 5, 7} {
		if !seen[want] {
			t.Errorf("port %d missing", want)
		}
	}
	if len(structs) != len(out) {
		t.Errorf("%d replicas share %d structs", len(out), len(structs))
	}
}

func TestEgressRetargetWithinPipeline(t *testing.T) {
	prog := Programs{Egress: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			// Packet bound for port 1 (egress pipeline 0, ports 0-3):
			// retarget within the pipeline works; outside is dropped.
			if ctx.Pkt.EgressPort == 1 {
				ctx.Egress = 2
			}
			return nil
		},
	}}}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 2 {
		t.Fatalf("retarget failed: %v", out)
	}
	// Cross-pipeline egress retarget is dropped and counted.
	prog2 := Programs{Egress: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Egress = 7 // pipeline 1 — packet is on pipeline 0
			return nil
		},
	}}}
	s2, err := New(smallConfig(), prog2)
	if err != nil {
		t.Fatal(err)
	}
	out, err = s2.Process(rawPkt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Error("cross-pipeline egress retarget delivered")
	}
	if s2.BadRoutes() != 1 {
		t.Errorf("BadRoutes = %d", s2.BadRoutes())
	}
}

func TestCentralProgramErrorPropagates(t *testing.T) {
	prog := Programs{Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			_, err := st.RegisterRMW(0, 1<<30, 0) // out of range
			return err
		},
	}}}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(rawPkt(0, 1)); err == nil {
		t.Error("central program error swallowed")
	}
}
