package pipeline

import (
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
)

func testLayout(t *testing.T, b phv.Budget) *phv.Layout {
	t.Helper()
	l := phv.NewLayout(b)
	for _, f := range []struct {
		name string
		w    phv.Width
	}{
		{"dst_port", phv.W16}, {"src_port", phv.W16}, {"proto", phv.W8},
		{"flags", phv.W8}, {"coflow_id", phv.W32}, {"flow_id", phv.W32},
		{"seq", phv.W32}, {"length", phv.W16}, {"kv_op", phv.W8}, {"kv_count", phv.W16},
	} {
		if _, err := l.Alloc(f.name, f.w); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func newTestPipeline(t *testing.T, cfg Config) (*Pipeline, *phv.Layout) {
	t.Helper()
	layout := testLayout(t, cfg.PHVBudget)
	p, err := New(cfg, packet.StandardGraph(), layout)
	if err != nil {
		t.Fatal(err)
	}
	return p, layout
}

func kvPacket(n int) *packet.Packet {
	pairs := make([]packet.KVPair, n)
	for i := range pairs {
		pairs[i] = packet.KVPair{Key: uint32(i + 1), Value: 0}
	}
	return packet.Build(
		packet.Header{DstPort: 5, SrcPort: 2, Proto: packet.ProtoKV, CoflowID: 9, FlowID: 1},
		&packet.KVHeader{Op: packet.KVGet, Pairs: pairs},
	)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultRMTConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Stages = 0 },
		func(c *Config) { c.MAUsPerStage = 0 },
		func(c *Config) { c.TableEntriesPerStage = 0 },
		func(c *Config) { c.RegisterCellsPerStage = -1 },
		func(c *Config) { c.ClockHz = 0 },
	}
	for i, mut := range bads {
		c := DefaultRMTConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestProcessFillsPHVAndDecodes(t *testing.T) {
	p, layout := newTestPipeline(t, DefaultRMTConfig())
	ctx, err := p.Process(kvPacket(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if got := ctx.PHV().Get(layout.Lookup("coflow_id")); got != 9 {
		t.Errorf("coflow_id = %d, want 9", got)
	}
	if got := ctx.PHV().Get(layout.Lookup("kv_count")); got != 3 {
		t.Errorf("kv_count = %d, want 3", got)
	}
	if len(ctx.Decoded.KV.Pairs) != 3 {
		t.Errorf("decoded %d pairs", len(ctx.Decoded.KV.Pairs))
	}
	if ctx.Verdict != VerdictForward {
		t.Errorf("verdict = %v", ctx.Verdict)
	}
	// Cycle accounting: 2 parse states + 12 stages.
	if ctx.Cycles != 2+12 {
		t.Errorf("Cycles = %d, want 14", ctx.Cycles)
	}
}

func TestStageProgramRuns(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	// Install a table entry in stage 0, match the first KV key on it.
	p.Stage(0).Mem.Install(1, mat.Result{ActionID: 7, Params: [2]uint64{3, 0}})
	var hitAction int
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			r, ok := s.Mem.Lookup(uint64(ctx.Decoded.KV.Pairs[0].Key))
			if ok {
				hitAction = r.ActionID
				ctx.Egress = int(r.Params[0])
			}
			return nil
		},
	}}
	ctx, err := p.Process(kvPacket(2), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if hitAction != 7 {
		t.Errorf("action = %d, want 7", hitAction)
	}
	if ctx.Egress != 3 {
		t.Errorf("egress = %d, want 3", ctx.Egress)
	}
}

func TestDropShortCircuitsStages(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	ran := make([]bool, 3)
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error { ran[0] = true; ctx.Verdict = VerdictDrop; return nil },
		func(s *Stage, ctx *Context) error { ran[1] = true; return nil },
		func(s *Stage, ctx *Context) error { ran[2] = true; return nil },
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if !ran[0] || ran[1] || ran[2] {
		t.Errorf("stage execution after drop: %v", ran)
	}
	if p.Drops() != 1 {
		t.Errorf("Drops = %d", p.Drops())
	}
}

func TestDeparserReencodesModifications(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			ctx.Decoded.KV.Pairs[0].Value = 12345
			ctx.Decoded.KV.Op = packet.KVHit
			ctx.Modified = true
			return nil
		},
	}}
	in := kvPacket(2)
	in.IngressPort = 4
	ctx, err := p.Process(in, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if ctx.Pkt == in {
		t.Fatal("deparser did not produce a new packet")
	}
	if ctx.Pkt.IngressPort != 4 {
		t.Error("deparser lost simulation metadata")
	}
	var d packet.Decoded
	if err := d.DecodePacket(ctx.Pkt); err != nil {
		t.Fatal(err)
	}
	if d.KV.Pairs[0].Value != 12345 || d.KV.Op != packet.KVHit {
		t.Errorf("modification lost: %+v", d.KV)
	}
}

func TestRegisterRMWOncePerTraversal(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	var second error
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			if _, err := s.RegisterRMW(mat.RegAdd, 0, 5); err != nil {
				return err
			}
			_, second = s.RegisterRMW(mat.RegAdd, 0, 5)
			return nil
		},
		func(s *Stage, ctx *Context) error {
			// A different stage may do its own RMW.
			_, err := s.RegisterRMW(mat.RegAdd, 1, 7)
			return err
		},
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	if second == nil {
		t.Error("second RMW in one stage/traversal allowed")
	}
	if got := p.Stage(0).Regs.Peek(0); got != 5 {
		t.Errorf("stage 0 reg = %d, want 5", got)
	}
	if got := p.Stage(1).Regs.Peek(1); got != 7 {
		t.Errorf("stage 1 reg = %d, want 7", got)
	}
	// Next packet may RMW again.
	ctx2, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx2)
	if got := p.Stage(0).Regs.Peek(0); got != 10 {
		t.Errorf("stage 0 reg after 2 packets = %d, want 10", got)
	}
}

func TestRegisterRMWOutOfRange(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	st := p.Stage(0)
	st.rmwDone = false
	if _, err := st.RegisterRMW(mat.RegAdd, -1, 1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := st.RegisterRMW(mat.RegAdd, 1<<20, 1); err == nil {
		t.Error("huge index accepted")
	}
}

func TestStageErrorPropagates(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	prog := &Program{Funcs: []StageFunc{
		nil, // nil funcs are no-ops
		func(s *Stage, ctx *Context) error { return mat.ErrTableFull },
	}}
	if _, err := p.Process(kvPacket(1), prog); err == nil || !strings.Contains(err.Error(), "stage 1") {
		t.Errorf("err = %v, want stage 1 error", err)
	}
}

func TestParseErrorCounted(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	bad := &packet.Packet{Data: []byte{1, 2, 3}}
	if _, err := p.Process(bad, nil); err == nil {
		t.Fatal("truncated packet accepted")
	}
	if p.ParseErrors() != 1 {
		t.Errorf("ParseErrors = %d", p.ParseErrors())
	}
}

func TestResumePreservesElementOffset(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	// Program: process one element per pass, recirculate until done.
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			n := len(ctx.Decoded.KV.Pairs)
			ctx.ElementOffset++
			if ctx.ElementOffset < n {
				ctx.Verdict = VerdictRecirculate
			} else {
				ctx.Verdict = VerdictForward
				ctx.Egress = 1
			}
			return nil
		},
	}}
	ctx, err := p.Process(kvPacket(4), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	passes := 1
	for ctx.Verdict == VerdictRecirculate {
		if err := p.Resume(ctx, prog); err != nil {
			t.Fatal(err)
		}
		passes++
	}
	if passes != 4 {
		t.Errorf("passes = %d, want 4 (one per element)", passes)
	}
	if p.Recirculations() != 3 {
		t.Errorf("Recirculations = %d, want 3", p.Recirculations())
	}
	if p.Packets() != 4 {
		t.Errorf("Packets = %d, want 4 traversals", p.Packets())
	}
}

func TestModeledThroughput(t *testing.T) {
	cfg := DefaultRMTConfig() // 1.25 GHz
	p, _ := newTestPipeline(t, cfg)
	if got := p.PacketRateCeiling(); got != 1.25e9 {
		t.Errorf("ceiling = %v pps, want 1.25e9", got)
	}
	if got := p.ModeledSeconds(1.25e9 / 1000); got != 0.001 {
		t.Errorf("ModeledSeconds = %v, want 1ms", got)
	}
}

func TestADCPConfigArrayStages(t *testing.T) {
	cfg := DefaultADCPConfig()
	p, _ := newTestPipeline(t, cfg)
	if p.Stage(0).Mem.Mode() != mat.ModeArray {
		t.Error("ADCP stages not in array mode")
	}
	if p.Stage(0).Mem.Parallelism() != 16 {
		t.Errorf("parallelism = %d", p.Stage(0).Mem.Parallelism())
	}
}

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{VerdictForward, VerdictDrop, VerdictRecirculate, VerdictConsume, Verdict(42)} {
		if v.String() == "" {
			t.Errorf("verdict %d renders empty", int(v))
		}
	}
}

func TestPHVPooledAcrossPackets(t *testing.T) {
	p, layout := newTestPipeline(t, DefaultRMTConfig())
	ctx1, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := ctx1.PHV()
	p.Release(ctx1)
	ctx2, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx2)
	if ctx2.PHV() != v1 {
		t.Error("PHV not reused from pool")
	}
	if got := ctx2.PHV().Get(layout.Lookup("kv_count")); got != 1 {
		t.Errorf("reused PHV has stale/missing data: kv_count = %d", got)
	}
}

func BenchmarkProcessNoProgram(b *testing.B) {
	layout := phv.NewLayout(phv.DefaultBudget)
	layout.Alloc("coflow_id", phv.W32)
	p, err := New(DefaultRMTConfig(), packet.StandardGraph(), layout)
	if err != nil {
		b.Fatal(err)
	}
	pkt := kvPacket(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := p.Process(pkt, nil)
		if err != nil {
			b.Fatal(err)
		}
		p.Release(ctx)
	}
}

func TestEmitSetsFlagAndInheritsRecirculations(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			res := packet.BuildRaw(packet.Header{DstPort: 2}, 8)
			ctx.Emit(res, 2, 5)
			ctx.Verdict = VerdictConsume
			return nil
		},
	}}
	in := kvPacket(1)
	in.Recirculations = 3
	ctx, err := p.Process(in, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if len(ctx.Emissions) != 1 {
		t.Fatalf("emissions = %d", len(ctx.Emissions))
	}
	em := ctx.Emissions[0]
	if em.Pkt.Data[5]&packet.FlagFromSwch == 0 {
		t.Error("FlagFromSwch not set")
	}
	if em.Pkt.Recirculations != 3 {
		t.Errorf("emission recirculations = %d, want inherited 3", em.Pkt.Recirculations)
	}
	if len(em.Ports) != 2 || em.Ports[0] != 2 || em.Ports[1] != 5 {
		t.Errorf("ports = %v", em.Ports)
	}
}

func TestScratchSurvivesResume(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error {
			if ctx.Scratch[0] == 0 {
				ctx.Scratch[0] = 42
				ctx.Verdict = VerdictRecirculate
			} else {
				ctx.Scratch[1] = ctx.Scratch[0] // visible on the next pass
				ctx.Verdict = VerdictForward
				ctx.Egress = 1
			}
			return nil
		},
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if err := p.Resume(ctx, prog); err != nil {
		t.Fatal(err)
	}
	if ctx.Scratch[1] != 42 {
		t.Errorf("Scratch lost across Resume: %v", ctx.Scratch)
	}
}

func TestConsumeShortCircuitsLikeDrop(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	ran := 0
	prog := &Program{Funcs: []StageFunc{
		func(s *Stage, ctx *Context) error { ran++; ctx.Verdict = VerdictConsume; return nil },
		func(s *Stage, ctx *Context) error { ran++; return nil },
	}}
	ctx, err := p.Process(kvPacket(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx)
	if ran != 1 {
		t.Errorf("stages ran = %d, want 1 (consume short-circuits)", ran)
	}
	if p.Drops() != 0 {
		t.Error("consume counted as drop")
	}
}
