package apps

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
)

func smallADCP() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 4
	pipe.TableEntriesPerStage = 4096
	pipe.RegisterCellsPerStage = 1024
	cfg.Pipe = pipe
	return cfg
}

func smallRMT() rmt.Config {
	cfg := rmt.DefaultConfig()
	cfg.Ports = 8
	cfg.Pipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 6
	pipe.TableEntriesPerStage = 4096
	pipe.RegisterCellsPerStage = 1024
	cfg.Pipe = pipe
	return cfg
}

func TestParamServerADCPCorrectness(t *testing.T) {
	ps := PSConfig{Workers: 6, ModelSize: 64, Width: 16}
	sw, err := NewParamServerADCP(smallADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Errorf("errors: %v", res.Errors)
	}
	// 4 chunks × 6 workers consumed; 4 results × 6 workers delivered.
	if sw.Consumed() != 24 {
		t.Errorf("Consumed = %d, want 24", sw.Consumed())
	}
	if res.Delivered != 24 {
		t.Errorf("Delivered = %d, want 24", res.Delivered)
	}
	// ADCP: exactly one ingress traversal per input packet, no recirc.
	if sw.IngressTraversals() != 24 {
		t.Errorf("ingress traversals = %d, want 24", sw.IngressTraversals())
	}
}

func TestParamServerRMTCorrectness(t *testing.T) {
	ps := PSConfig{Workers: 6, ModelSize: 20, Width: 5} // width ≤ 5 usable stages
	sw, err := NewParamServerRMT(smallRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Errorf("errors: %v", res.Errors)
	}
	// Workers 0..3 are on pipeline 0; the aggregation pipeline is 1, so
	// packets from 4 of 6 workers must loop through the recirculation
	// port: 4 chunks × 4 workers = 16 extra ingress traversals.
	if got := sw.RecirculationTraversals(); got != 16 {
		t.Errorf("recirc traversals = %d, want 16", got)
	}
	if got := sw.IngressTraversals(); got != 24+16 {
		t.Errorf("ingress traversals = %d, want 40 (24 fresh + 16 recirculated)", got)
	}
	frac := sw.IngressOverheadFraction()
	if frac < 0.39 || frac > 0.41 {
		t.Errorf("ingress overhead = %v, want 0.4", frac)
	}
}

func TestParamServerRMTWidePacketsRecirculate(t *testing.T) {
	// Width 16 over 5 usable stages: ceil(16/5) = 4 passes per packet in
	// the aggregation pipeline.
	ps := PSConfig{Workers: 2, ModelSize: 16, Width: 16}
	sw, err := NewParamServerRMT(smallRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Workers 0,1 on pipeline 0 → each packet: 1 steering pass + loopback
	// + 4 aggregation passes = 1 loopback recirc + 3 width recircs = 4
	// recirc traversals per packet; 2 packets → 8.
	if got := sw.RecirculationTraversals(); got != 8 {
		t.Errorf("recirc traversals = %d, want 8", got)
	}
}

func TestParamServerADCPSingleTraversalForWide(t *testing.T) {
	// The §3.2 contrast: 16-wide packets, ADCP aggregates in ONE central
	// traversal each.
	ps := PSConfig{Workers: 2, ModelSize: 16, Width: 16}
	sw, err := NewParamServerADCP(smallADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 3, 7); err != nil {
		t.Fatal(err)
	}
	if got := sw.CentralTraversals(); got != 2 {
		t.Errorf("central traversals = %d, want 2 (one per input packet)", got)
	}
}

func TestParamServerValidation(t *testing.T) {
	if _, err := NewParamServerADCP(smallADCP(), PSConfig{Workers: 0, ModelSize: 16, Width: 16}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewParamServerADCP(smallADCP(), PSConfig{Workers: 2, ModelSize: 17, Width: 16}); err == nil {
		t.Error("unaligned model accepted")
	}
	if _, err := NewParamServerADCP(smallADCP(), PSConfig{Workers: 2, ModelSize: 64, Width: 32}); err == nil {
		t.Error("width beyond array accepted")
	}
	// Register exhaustion: too many chunks.
	if _, err := NewParamServerADCP(smallADCP(), PSConfig{Workers: 2, ModelSize: 1 << 20, Width: 16}); err == nil {
		t.Error("register overflow accepted")
	}
	if _, err := NewParamServerRMT(smallRMT(), PSConfig{Workers: 8, ModelSize: 16, Width: 4}); err == nil {
		t.Error("workers occupying the loopback port accepted")
	}
	if _, err := NewParamServerRMT(smallRMT(), PSConfig{Workers: 2, ModelSize: 1 << 20, Width: 16}); err == nil {
		t.Error("RMT register overflow accepted")
	}
}

func TestParamServerScalarWidthOnBoth(t *testing.T) {
	// Width 1 (the scalar format RMT pushes applications toward, §3.2)
	// works on both switches and produces identical results.
	ps := PSConfig{Workers: 3, ModelSize: 8, Width: 1}
	a, err := NewParamServerADCP(smallADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunParamServer(a, netsim.DefaultConfig(8), ps, 4, 11); err != nil {
		t.Errorf("ADCP scalar: %v", err)
	}
	r, err := NewParamServerRMT(smallRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunParamServer(r, netsim.DefaultConfig(8), ps, 4, 11); err != nil {
		t.Errorf("RMT scalar: %v", err)
	}
}

func TestParamServerMultiRound(t *testing.T) {
	// Three training rounds with different gradients; the control plane
	// wipes the aggregation registers between rounds.
	ps := PSConfig{Workers: 4, ModelSize: 32, Width: 16}
	asw, err := NewParamServerADCP(smallADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	rsw, err := NewParamServerRMT(smallRMT(), ps)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		seed := uint64(100 + round)
		if _, err := RunParamServer(asw, netsim.DefaultConfig(8), ps, uint32(round+1), seed); err != nil {
			t.Fatalf("ADCP round %d: %v", round, err)
		}
		ResetParamServerADCP(asw)
		if _, err := RunParamServer(rsw, netsim.DefaultConfig(8), ps, uint32(round+1), seed); err != nil {
			t.Fatalf("RMT round %d: %v", round, err)
		}
		ResetParamServerRMT(rsw)
	}
}

func TestParamServerWithoutResetCorrupts(t *testing.T) {
	// Negative control: skipping the register wipe makes round 2's sums
	// wrong (they include round 1's residue), so the run harness reports
	// a verification error rather than silently passing.
	ps := PSConfig{Workers: 2, ModelSize: 16, Width: 16}
	sw, err := NewParamServerADCP(smallADCP(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 1, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := RunParamServer(sw, netsim.DefaultConfig(8), ps, 2, 51); err == nil {
		t.Fatal("stale-register round verified clean — corruption undetected")
	}
}

func TestParamServerScale(t *testing.T) {
	// A larger round on the default-geometry ADCP: 15 workers × 128
	// chunks of 16 weights (1920 input packets, 1920 result deliveries),
	// all sums verified. Guards against quadratic blowups in the switch
	// path as well as correctness at scale.
	cfg := core.DefaultConfig() // 16 ports, 1:2 demux, 8 central, 4 egress
	pipe := cfg.Pipe
	pipe.RegisterCellsPerStage = 4096
	cfg.Pipe = pipe
	ps := PSConfig{Workers: 15, ModelSize: 2048, Width: 16}
	sw, err := NewParamServerADCP(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParamServer(sw, netsim.DefaultConfig(16), ps, 9, 2026)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 15*128 {
		t.Errorf("injected %d", res.Injected)
	}
	if res.Delivered != 15*128 {
		t.Errorf("delivered %d", res.Delivered)
	}
	if sw.IngressTraversals() != 15*128 {
		t.Errorf("traversals %d", sw.IngressTraversals())
	}
	// Load spreads across all central pipelines.
	for p := 0; p < cfg.CentralPipelines; p++ {
		if sw.Central(p).Packets() == 0 {
			t.Errorf("central %d idle", p)
		}
	}
}

// tamperedSwitch rewrites the first result packet a switch emits.
type tamperedSwitch struct {
	netsim.SwitchModel
	tamper func(body []byte) // the ML header and values, after the base header
	done   bool
}

func (s *tamperedSwitch) Process(pkt *packet.Packet) ([]*packet.Packet, error) {
	outs, err := s.SwitchModel.Process(pkt)
	if len(outs) > 0 && !s.done {
		s.done = true
		s.tamper(outs[0].Data[packet.BaseHeaderLen:])
	}
	return outs, err
}

// TestParamServerVerificationRejects: the per-worker check catches a wrong
// sum, a weight delivered twice in place of another, and a weight index
// outside the model.
func TestParamServerVerificationRejects(t *testing.T) {
	ps := PSConfig{Workers: 6, ModelSize: 64, Width: 16}
	cases := []struct {
		name    string
		tamper  func(body []byte)
		wantErr string
	}{
		{"wrong sum", func(b []byte) { b[packet.MLHeaderFixedLen] ^= 0x80 }, " = "},
		{"duplicate chunk", func(b []byte) {
			base := binary.BigEndian.Uint32(b[0:4])
			binary.BigEndian.PutUint32(b[0:4], (base+16)%64)
		}, "received 48 of 64 weights"},
		{"index outside the model", func(b []byte) { binary.BigEndian.PutUint32(b[0:4], 60) },
			"received weight 64 of a 64-weight model"},
	}
	for _, tc := range cases {
		sw, err := NewParamServerADCP(smallADCP(), ps)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunParamServer(&tamperedSwitch{SwitchModel: sw, tamper: tc.tamper}, netsim.DefaultConfig(8), ps, 1, 42)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
