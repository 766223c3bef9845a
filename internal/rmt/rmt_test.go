package rmt

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/pipeline"
)

// smallConfig: 8 ports over 2 pipelines keeps tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Ports = 8
	cfg.Pipelines = 2
	pipe := cfg.Pipe
	pipe.Stages = 4
	pipe.TableEntriesPerStage = 1024
	pipe.RegisterCellsPerStage = 64
	cfg.Pipe = pipe
	return cfg
}

func rawPkt(src, dst int) *packet.Packet {
	p := packet.BuildRaw(packet.Header{
		DstPort: uint16(dst), SrcPort: uint16(src), CoflowID: 1,
	}, 40)
	p.IngressPort = src
	return p
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Pipelines = 0 },
		func(c *Config) { c.Ports = 10; c.Pipelines = 4 }, // uneven
		func(c *Config) { c.TMBufferBytes = 0 },
		func(c *Config) { c.Pipe.Stages = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultForwarding(t *testing.T) {
	s, err := New(smallConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("delivered %d packets", len(out))
	}
	if out[0].EgressPort != 5 {
		t.Errorf("egress port = %d, want 5", out[0].EgressPort)
	}
	if s.Delivered() != 1 || s.TxOnPort(5) != 1 {
		t.Error("delivery counters wrong")
	}
}

func TestPortPipelineMapping(t *testing.T) {
	s, _ := New(smallConfig(), nil, nil) // 8 ports / 2 pipelines = 4 ppp
	cases := map[int]int{0: 0, 3: 0, 4: 1, 7: 1}
	for port, want := range cases {
		if got := s.PipelineOfPort(port); got != want {
			t.Errorf("PipelineOfPort(%d) = %d, want %d", port, got, want)
		}
	}
	p0 := s.PortsOfPipeline(0)
	if len(p0) != 4 || p0[0] != 0 || p0[3] != 3 {
		t.Errorf("PortsOfPipeline(0) = %v", p0)
	}
	p1 := s.PortsOfPipeline(1)
	if len(p1) != 4 || p1[0] != 4 || p1[3] != 7 {
		t.Errorf("PortsOfPipeline(1) = %v", p1)
	}
}

func TestIngressProgramSetsEgress(t *testing.T) {
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Egress = 7
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 2)) // header says 2, program says 7
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 7 {
		t.Fatalf("out = %v", out)
	}
}

func TestMulticastFromIngress(t *testing.T) {
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Multicast = []int{1, 4, 6} // spans both egress pipelines
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("delivered %d, want 3", len(out))
	}
	got := map[int]bool{}
	for _, p := range out {
		got[p.EgressPort] = true
	}
	for _, want := range []int{1, 4, 6} {
		if !got[want] {
			t.Errorf("port %d missing from multicast", want)
		}
	}
}

func TestRecirculationAccounting(t *testing.T) {
	// Process one element per pass: a 4-element KV packet takes 4 passes.
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.ElementOffset++
			if ctx.ElementOffset < len(ctx.Decoded.KV.Pairs) {
				ctx.Verdict = pipeline.VerdictRecirculate
			} else {
				ctx.Verdict = pipeline.VerdictForward
				ctx.Egress = 1
			}
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.Build(packet.Header{Proto: packet.ProtoKV, DstPort: 1},
		&packet.KVHeader{Op: packet.KVGet, Pairs: make([]packet.KVPair, 4)})
	pkt.IngressPort = 0
	out, err := s.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("delivered %d", len(out))
	}
	if s.RecirculationTraversals() != 3 {
		t.Errorf("recirc traversals = %d, want 3", s.RecirculationTraversals())
	}
	if s.IngressTraversals() != 4 {
		t.Errorf("ingress traversals = %d, want 4", s.IngressTraversals())
	}
	if got := s.IngressOverheadFraction(); got != 0.75 {
		t.Errorf("overhead fraction = %v, want 0.75 (3 of 4 slots burned)", got)
	}
	if out[0].Recirculations != 3 {
		t.Errorf("packet recirculation stamp = %d", out[0].Recirculations)
	}
	if out[0].Data[5]&packet.FlagRecirc == 0 {
		t.Error("FlagRecirc not set")
	}
}

func TestMaxRecirculationsGuard(t *testing.T) {
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Verdict = pipeline.VerdictRecirculate
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxRecirculations = 5
	if _, err := s.Process(rawPkt(0, 1)); err == nil || !strings.Contains(err.Error(), "recirculations") {
		t.Errorf("err = %v, want recirculation guard", err)
	}
}

func TestEgressPortPinning(t *testing.T) {
	// Limitation ① (Figure 2): an egress program may only retarget ports of
	// its own pipeline.
	cross := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Egress = 7 // pipeline 1's port — packet is on pipeline 0
			return nil
		},
	}}
	s, err := New(smallConfig(), nil, cross)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 1)) // dst 1 → egress pipeline 0
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("cross-pipeline retarget delivered %d packets", len(out))
	}
	if s.Misrouted() != 1 {
		t.Errorf("Misrouted = %d, want 1", s.Misrouted())
	}
	// Retargeting within the pipeline works.
	within := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Egress = 2 // same pipeline as port 1
			return nil
		},
	}}
	s2, err := New(smallConfig(), nil, within)
	if err != nil {
		t.Fatal(err)
	}
	out, err = s2.Process(rawPkt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 2 {
		t.Fatalf("within-pipeline retarget failed: %v", out)
	}
}

func TestSharedNothingIngressState(t *testing.T) {
	// Limitation ①: per-pipeline register state. The same program counts
	// packets in stage 0 register 0; ports on different pipelines hit
	// different registers.
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			_, err := st.RegisterRMW(mat.RegAdd, 0, 1)
			return err
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 packets from port 0 (pipeline 0), 2 from port 5 (pipeline 1).
	for i := 0; i < 3; i++ {
		if _, err := s.Process(rawPkt(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Process(rawPkt(5, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Ingress(0).Stage(0).Regs.Peek(0); got != 3 {
		t.Errorf("pipeline 0 count = %d, want 3", got)
	}
	if got := s.Ingress(1).Stage(0).Regs.Peek(0); got != 2 {
		t.Errorf("pipeline 1 count = %d, want 2 (state is NOT shared)", got)
	}
}

func TestEmissionFromIngress(t *testing.T) {
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Decoded.Base.Flags&packet.FlagLast != 0 {
				result := packet.BuildRaw(packet.Header{Proto: packet.ProtoRaw, CoflowID: 1}, 10)
				ctx.Emit(result, 2, 6)
				ctx.Verdict = pipeline.VerdictConsume
			} else {
				ctx.Verdict = pipeline.VerdictConsume
			}
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("non-last packet delivered %d", len(out))
	}
	last := rawPkt(0, 1)
	last.Data[5] |= packet.FlagLast
	out, err = s.Process(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("emission delivered %d, want 2", len(out))
	}
	for _, p := range out {
		if p.Data[5]&packet.FlagFromSwch == 0 {
			t.Error("emitted packet missing FlagFromSwch")
		}
	}
}

func TestBadPortErrors(t *testing.T) {
	s, _ := New(smallConfig(), nil, nil)
	bad := rawPkt(0, 200)
	if _, err := s.Process(bad); err == nil {
		t.Error("out-of-range egress port accepted")
	}
	neg := rawPkt(0, 1)
	neg.IngressPort = -1
	if _, err := s.Process(neg); err == nil {
		t.Error("negative ingress port accepted")
	}
}

func TestTMDropAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.TMBufferBytes = packet.MinWireLen // fits exactly one packet
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Multicast = []int{1, 2, 3} // 3 copies into a 1-packet buffer
			return nil
		},
	}}
	s, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("delivered %d, want 1 (rest dropped)", len(out))
	}
	if s.TM().Dropped() != 2 {
		t.Errorf("TM drops = %d, want 2", s.TM().Dropped())
	}
}

func TestScalarStageMemoryMode(t *testing.T) {
	s, _ := New(smallConfig(), nil, nil)
	if s.Ingress(0).Stage(0).Mem.Mode() != mat.ModeScalar {
		t.Error("RMT stages must be scalar mode (limitation ②)")
	}
}

func BenchmarkRMTForward(b *testing.B) {
	cfg := smallConfig()
	s, err := New(cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := rawPkt(i%8, (i+1)%8)
		if _, err := s.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLoopbackPortCrossesPipelines(t *testing.T) {
	// Reshuffle a flow from pipeline 0 into pipeline 1 via a loopback
	// port: fresh packets from pipeline 0 are sent to pipeline 1's
	// loopback; on re-entry (FlagRecirc set) they aggregate there.
	cfg := smallConfig()
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Pkt.Data[5]&packet.FlagRecirc == 0 {
				ctx.Egress = 4 // pipeline 1's first port = loopback
				return nil
			}
			// Second pass, now in pipeline 1: count and deliver on port 5.
			if _, err := st.RegisterRMW(mat.RegAdd, 0, 1); err != nil {
				return err
			}
			ctx.Egress = 5
			return nil
		},
	}}
	s, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRecirculationPort(4); err != nil {
		t.Fatal(err)
	}
	if got := s.RecirculationPortOf(1); got != 4 {
		t.Fatalf("RecirculationPortOf(1) = %d", got)
	}
	// Packets from ports 0 and 1 (pipeline 0).
	for _, src := range []int{0, 1} {
		out, err := s.Process(rawPkt(src, 4))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].EgressPort != 5 {
			t.Fatalf("out = %v", out)
		}
	}
	// State accumulated in pipeline 1, not 0.
	if got := s.Ingress(1).Stage(0).Regs.Peek(0); got != 2 {
		t.Errorf("pipeline 1 count = %d, want 2", got)
	}
	if got := s.Ingress(0).Stage(0).Regs.Peek(0); got != 0 {
		t.Errorf("pipeline 0 count = %d, want 0", got)
	}
	// Each packet burned one extra ingress traversal.
	if s.RecirculationTraversals() != 2 {
		t.Errorf("recirc traversals = %d, want 2", s.RecirculationTraversals())
	}
	if s.IngressOverheadFraction() != 0.5 {
		t.Errorf("overhead = %v, want 0.5", s.IngressOverheadFraction())
	}
}

func TestMarkRecirculationPortValidation(t *testing.T) {
	s, _ := New(smallConfig(), nil, nil)
	if err := s.MarkRecirculationPort(99); err == nil {
		t.Error("out-of-range loopback accepted")
	}
}

func TestLoopbackInfiniteLoopGuard(t *testing.T) {
	// A program that always targets the loopback must hit the guard.
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Egress = 4
			return nil
		},
	}}
	s, err := New(smallConfig(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.MarkRecirculationPort(4)
	s.MaxRecirculations = 8
	if _, err := s.Process(rawPkt(0, 1)); err == nil {
		t.Error("infinite loopback not caught")
	}
}

func TestAccessorsAndByteCounters(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Ports != cfg.Ports {
		t.Error("Config accessor wrong")
	}
	if s.Egress(0) == nil || s.Ingress(1) == nil {
		t.Error("pipeline accessors returned nil")
	}
	if s.IngressOverheadFraction() != 0 {
		t.Error("fresh switch overhead nonzero")
	}
	p := rawPkt(0, 2)
	want := uint64(p.WireLen())
	if _, err := s.Process(p); err != nil {
		t.Fatal(err)
	}
	if s.DeliveredBytes() != want {
		t.Errorf("DeliveredBytes = %d, want %d", s.DeliveredBytes(), want)
	}
}

func TestEgressEmissionOutOfRangePortMisroutes(t *testing.T) {
	prog := &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			bad := packet.BuildRaw(packet.Header{}, 0)
			ctx.Emit(bad, 99) // out of range
			return nil
		},
	}}
	s, err := New(smallConfig(), nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 { // the original packet still delivers
		t.Fatalf("delivered %d", len(out))
	}
	if s.Misrouted() != 1 {
		t.Errorf("Misrouted = %d", s.Misrouted())
	}
}

// TestConstructionBudget pins what building a switch costs at the
// benchmark's geometry (16 ports, 4 pipelines, 6 stages, 4096 table entries
// and 1024 register cells per stage): table maps and register cells are
// made on first use, so an idle switch is headers only.
func TestConstructionBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ports = 16
	cfg.Pipe.Stages = 6
	cfg.Pipe.TableEntriesPerStage = 4096
	cfg.Pipe.RegisterCellsPerStage = 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw, err := New(cfg, nil, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 256 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", got)
	if got > budget {
		t.Errorf("rmt.New allocated %d bytes, budget %d", got, budget)
	}
	runtime.KeepAlive(sw)
}
