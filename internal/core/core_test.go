package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/pipeline"
)

// smallConfig: 8 ports, 1:2 demux, 4 central, 2 egress pipelines.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
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

func kvPkt(src int, keys ...uint32) *packet.Packet {
	pairs := make([]packet.KVPair, len(keys))
	for i, k := range keys {
		pairs[i] = packet.KVPair{Key: k}
	}
	p := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: uint16(src), DstPort: 0, CoflowID: 2},
		&packet.KVHeader{Op: packet.KVGet, Pairs: pairs})
	p.IngressPort = src
	return p
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.DemuxFactor = 0 },
		func(c *Config) { c.CentralPipelines = 0 },
		func(c *Config) { c.EgressPipelines = 0 },
		func(c *Config) { c.Ports = 10; c.EgressPipelines = 4 },
		func(c *Config) { c.TM1BufferBytes = 0 },
		func(c *Config) { c.TM2BufferBytes = 0 },
		func(c *Config) { c.Pipe.ClockHz = 0 },
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
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Process(rawPkt(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 6 {
		t.Fatalf("out = %+v", out)
	}
	if s.Delivered() != 1 || s.TxOnPort(6) != 1 {
		t.Error("counters wrong")
	}
}

func TestDemuxRoundRobin(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumIngressPipelines() != 16 { // 8 ports × 2
		t.Fatalf("ingress pipelines = %d", s.NumIngressPipelines())
	}
	// Two packets from port 3 land on pipelines 6 and 7.
	if _, err := s.Process(rawPkt(3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(rawPkt(3, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Ingress(6).Packets() != 1 || s.Ingress(7).Packets() != 1 {
		t.Errorf("demux counts: pipe6=%d pipe7=%d, want 1/1",
			s.Ingress(6).Packets(), s.Ingress(7).Packets())
	}
	// Third packet wraps around.
	if _, err := s.Process(rawPkt(3, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Ingress(6).Packets() != 2 {
		t.Errorf("round-robin did not wrap: %d", s.Ingress(6).Packets())
	}
}

func TestPartitionPlacesState(t *testing.T) {
	// Partition KV keys by hash of first key; count per central pipeline.
	s, err := New(smallConfig(), Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				_, err := st.RegisterRMW(mat.RegAdd, 0, 1)
				return err
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int {
		return mat.HashToBucket(uint64(ctx.Decoded.KV.Pairs[0].Key), 4)
	})
	wantCounts := make([]uint64, 4)
	for k := uint32(0); k < 40; k++ {
		wantCounts[mat.HashToBucket(uint64(k), 4)]++
		if _, err := s.Process(kvPkt(int(k)%8, k)); err != nil {
			t.Fatal(err)
		}
	}
	for cp := 0; cp < 4; cp++ {
		if got := s.Central(cp).Stage(0).Regs.Peek(0); got != wantCounts[cp] {
			t.Errorf("central %d count = %d, want %d", cp, got, wantCounts[cp])
		}
	}
}

func TestAnyPortOutputFromAnyCentralPipeline(t *testing.T) {
	// Figure 5: state on central pipeline 3, result exits port 0 (egress
	// pipeline 0) — impossible with RMT egress processing, trivial here.
	prog := Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				ctx.Egress = 0
				return nil
			},
		}},
	}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 3 })
	out, err := s.Process(rawPkt(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 0 {
		t.Fatalf("out = %v", out)
	}
	if s.Central(3).Packets() != 1 {
		t.Error("packet did not traverse central pipeline 3")
	}
}

func TestArrayMatchInCentralStage(t *testing.T) {
	// §3.2: 16 keys matched in one traversal against one shared table.
	var cyclesUsed int
	prog := Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				pairs := ctx.Decoded.KV.Pairs
				keys := make([]uint64, len(pairs))
				for i, p := range pairs {
					keys[i] = uint64(p.Key)
				}
				results := make([]mat.Result, len(keys))
				hits := make([]bool, len(keys))
				cyc, err := st.Mem.LookupBatch(keys, results, hits)
				if err != nil {
					return err
				}
				cyclesUsed = cyc
				for i := range pairs {
					if hits[i] {
						pairs[i].Value = uint32(results[i].Params[0])
					}
				}
				ctx.Modified = true
				ctx.Egress = 1
				return nil
			},
		}},
	}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	// Install 16 cache entries in central pipeline 0, stage 0.
	for k := uint32(1); k <= 16; k++ {
		if err := s.Central(0).Stage(0).Mem.Install(uint64(k), mat.Result{Params: [2]uint64{uint64(k * 100), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint32, 16)
	for i := range keys {
		keys[i] = uint32(i + 1)
	}
	out, err := s.Process(kvPkt(0, keys...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("delivered %d", len(out))
	}
	if cyclesUsed != 1 {
		t.Errorf("16-wide match took %d cycles, want 1", cyclesUsed)
	}
	var d packet.Decoded
	if err := d.DecodePacket(out[0]); err != nil {
		t.Fatal(err)
	}
	for i, p := range d.KV.Pairs {
		if p.Value != uint32(i+1)*100 {
			t.Errorf("pair %d value = %d, want %d", i, p.Value, (i+1)*100)
		}
	}
}

func TestAggregateConsumeAndEmit(t *testing.T) {
	// Parameter-server shape: consume N worker packets, emit the sum to
	// all workers (multicast across BOTH egress pipelines — the Figure 5
	// capability).
	const workers = 4
	prog := Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				sum, err := st.RegisterRMW(mat.RegAdd, 0, uint64(ctx.Decoded.ML.Values[0]))
				if err != nil {
					return err
				}
				// Second stateful ALU of the stage (not RMW-constrained in
				// this model): the arrival counter.
				count := st.Regs.Execute(mat.RegAdd, 1, 1)
				if count == workers {
					res := packet.Build(packet.Header{Proto: packet.ProtoML, CoflowID: 7},
						&packet.MLHeader{Base: 0, Values: []uint32{uint32(sum)}})
					ctx.Emit(res, 0, 2, 5, 7) // spans both egress pipelines
				}
				ctx.Verdict = pipeline.VerdictConsume
				return nil
			},
		}},
	}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 2 })
	var all []*packet.Packet
	for w := 0; w < workers; w++ {
		p := packet.Build(packet.Header{Proto: packet.ProtoML, SrcPort: uint16(w), CoflowID: 7},
			&packet.MLHeader{Base: 0, Worker: uint16(w), Values: []uint32{uint32(w + 1)}})
		p.IngressPort = w
		out, err := s.Process(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out...)
	}
	if len(all) != 4 {
		t.Fatalf("result fanned to %d ports, want 4", len(all))
	}
	ports := map[int]bool{}
	for _, p := range all {
		ports[p.EgressPort] = true
		var d packet.Decoded
		if err := d.DecodePacket(p); err != nil {
			t.Fatal(err)
		}
		if d.ML.Values[0] != 1+2+3+4 {
			t.Errorf("aggregated value = %d, want 10", d.ML.Values[0])
		}
	}
	for _, want := range []int{0, 2, 5, 7} {
		if !ports[want] {
			t.Errorf("port %d missing", want)
		}
	}
	if s.Consumed() != workers {
		t.Errorf("Consumed = %d, want %d", s.Consumed(), workers)
	}
}

func TestMergeModeOrdersAcrossFlows(t *testing.T) {
	// TM1 merge semantics: two flows each sorted by seq; drain must
	// interleave in global seq order.
	var drained []uint32
	prog := Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				drained = append(drained, ctx.Decoded.Base.Seq)
				ctx.Egress = 0
				return nil
			},
		}},
	}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 1 })
	s.SetRankOrder(func(ctx *pipeline.Context) (uint64, uint64) {
		return uint64(ctx.Decoded.Base.FlowID), uint64(ctx.Decoded.Base.Seq)
	})
	send := func(flow, seq uint32) {
		p := packet.BuildRaw(packet.Header{DstPort: 0, CoflowID: 3, FlowID: flow, Seq: seq}, 10)
		p.IngressPort = int(flow) % 8
		if err := s.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	// Flow 1: 1,4,9 — flow 2: 2,3,8. Accept interleaved arbitrarily.
	send(1, 1)
	send(2, 2)
	send(2, 3)
	send(1, 4)
	send(2, 8)
	send(1, 9)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 3, 4, 8, 9}
	if len(drained) != len(want) {
		t.Fatalf("drained %v", drained)
	}
	for i := range want {
		if drained[i] != want[i] {
			t.Fatalf("drained %v, want %v", drained, want)
		}
	}
}

func TestMergeModeRejectsUnsortedFlow(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	s.SetRankOrder(func(ctx *pipeline.Context) (uint64, uint64) {
		return uint64(ctx.Decoded.Base.FlowID), uint64(ctx.Decoded.Base.Seq)
	})
	p1 := packet.BuildRaw(packet.Header{FlowID: 1, Seq: 10}, 0)
	p1.IngressPort = 0
	if err := s.Accept(p1); err != nil {
		t.Fatal(err)
	}
	p2 := packet.BuildRaw(packet.Header{FlowID: 1, Seq: 5}, 0)
	p2.IngressPort = 0
	if err := s.Accept(p2); err == nil {
		t.Error("rank regression within a flow accepted")
	}
}

func TestRecirculationForbidden(t *testing.T) {
	prog := Programs{Ingress: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			ctx.Verdict = pipeline.VerdictRecirculate
			return nil
		},
	}}}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(rawPkt(0, 1)); err == nil || !strings.Contains(err.Error(), "recirculate") {
		t.Errorf("err = %v, want recirculation rejection", err)
	}
}

func TestBadPartitionTarget(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 99 })
	if _, err := s.Process(rawPkt(0, 1)); err == nil {
		t.Error("out-of-range partition target accepted")
	}
	if s.BadRoutes() != 1 {
		t.Errorf("BadRoutes = %d", s.BadRoutes())
	}
}

func TestBadEgressPortErrors(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(rawPkt(0, 200)); err == nil {
		t.Error("out-of-range egress port accepted")
	}
	neg := rawPkt(0, 1)
	neg.IngressPort = 99
	if _, err := s.Process(neg); err == nil {
		t.Error("out-of-range ingress port accepted")
	}
}

func TestCentralStateIsPartitioned(t *testing.T) {
	// §3.1: the area is *partitioned* — central pipelines do not share
	// registers.
	prog := Programs{
		Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				_, err := st.RegisterRMW(mat.RegAdd, 0, 1)
				return err
			},
		}},
	}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int {
		return int(ctx.Decoded.Base.CoflowID) % 4
	})
	for i := 0; i < 6; i++ {
		p := packet.BuildRaw(packet.Header{DstPort: 1, CoflowID: uint32(i % 2)}, 0)
		p.IngressPort = 0
		if _, err := s.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Central(0).Stage(0).Regs.Peek(0); got != 3 {
		t.Errorf("central 0 = %d, want 3", got)
	}
	if got := s.Central(1).Stage(0).Regs.Peek(0); got != 3 {
		t.Errorf("central 1 = %d, want 3", got)
	}
	if got := s.Central(2).Stage(0).Regs.Peek(0); got != 0 {
		t.Errorf("central 2 = %d, want 0 (partitioned)", got)
	}
}

func TestArrayStageMemoryMode(t *testing.T) {
	s, _ := New(smallConfig(), Programs{})
	if s.Central(0).Stage(0).Mem.Mode() != mat.ModeArray {
		t.Error("ADCP stages must be array mode")
	}
}

func BenchmarkADCPForward(b *testing.B) {
	s, err := New(smallConfig(), Programs{})
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

func TestIngressEmissionRoutesViaPartition(t *testing.T) {
	// An ingress program may emit (unusual but legal): the emission takes
	// the partition path into TM1 and continues through central + TM2.
	prog := Programs{Ingress: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			if ctx.Decoded.Base.Flags&packet.FlagLast != 0 {
				note := packet.BuildRaw(packet.Header{DstPort: 6, CoflowID: 5}, 4)
				ctx.Emit(note, 6)
				ctx.Verdict = pipeline.VerdictConsume
			}
			return nil
		},
	}}}
	s, err := New(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 1 })
	in := rawPkt(0, 3)
	in.Data[5] |= packet.FlagLast
	out, err := s.Process(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].EgressPort != 6 {
		t.Fatalf("out = %v", out)
	}
	if s.Central(1).Packets() != 1 {
		t.Error("emission did not traverse the partitioned central pipeline")
	}
	if s.Consumed() != 1 {
		t.Errorf("Consumed = %d", s.Consumed())
	}
}

func TestAccessorsAndByteCounters(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg, Programs{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Ports != cfg.Ports {
		t.Error("Config accessor wrong")
	}
	if s.Egress(0) == nil || s.Central(0) == nil || s.Ingress(0) == nil {
		t.Error("pipeline accessors returned nil")
	}
	p := rawPkt(0, 2)
	want := uint64(p.WireLen())
	if _, err := s.Process(p); err != nil {
		t.Fatal(err)
	}
	if s.DeliveredBytes() != want {
		t.Errorf("DeliveredBytes = %d, want %d", s.DeliveredBytes(), want)
	}
	if s.CentralTraversals() != 1 {
		t.Errorf("CentralTraversals = %d", s.CentralTraversals())
	}
}

func TestPHVArrayContainerEndToEnd(t *testing.T) {
	// A custom program layout with an ADCP array container: the ingress
	// program lifts the KV keys into the PHV array; the central program
	// consumes them FROM THE PHV (not from the decoded packet) — the §3.2
	// dataflow where array data travels the pipeline as a first-class
	// PHV element.
	layout := pipeline.StandardLayout(phv.ADCPBudget)
	batchID, err := layout.AllocArray("batch")
	if err != nil {
		t.Fatal(err)
	}
	var centralSaw []uint32
	progs := Programs{
		Ingress: &pipeline.Program{
			Layout: layout,
			Funcs: []pipeline.StageFunc{
				func(st *pipeline.Stage, ctx *pipeline.Context) error {
					if ctx.Decoded.Base.Proto != packet.ProtoKV {
						return nil
					}
					keys := make([]uint32, len(ctx.Decoded.KV.Pairs))
					for i, p := range ctx.Decoded.KV.Pairs {
						keys[i] = p.Key
					}
					ctx.PHV().SetArray(batchID, keys)
					return nil
				},
			},
		},
		Central: &pipeline.Program{
			Layout: layout,
			Funcs: []pipeline.StageFunc{
				func(st *pipeline.Stage, ctx *pipeline.Context) error {
					if !ctx.PHV().Valid(batchID) {
						return nil
					}
					centralSaw = append(centralSaw, ctx.PHV().Array(batchID)...)
					ctx.Verdict = pipeline.VerdictConsume
					return nil
				},
			},
		},
	}
	s, err := New(smallConfig(), progs)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	if _, err := s.Process(kvPkt(1, 10, 20, 30, 40)); err != nil {
		t.Fatal(err)
	}
	// The PHV array does NOT survive the TM crossing in this model (each
	// pipeline re-parses), so central must re-derive... unless the
	// ingress wrote it into the packet. Assert the actual contract:
	// central saw nothing via PHV — documenting that PHV state is
	// pipeline-local, like real hardware where the TM carries packets,
	// not PHVs.
	if len(centralSaw) != 0 {
		t.Errorf("PHV array crossed the TM: %v — PHVs are per-pipeline", centralSaw)
	}
	// Within ONE pipeline the array is usable: verify directly.
	pl, err := pipeline.New(smallConfig().Pipe, packet.StandardGraph(), layout)
	if err != nil {
		t.Fatal(err)
	}
	prog := &pipeline.Program{
		Layout: layout,
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				keys := make([]uint32, len(ctx.Decoded.KV.Pairs))
				for i, p := range ctx.Decoded.KV.Pairs {
					keys[i] = p.Key
				}
				ctx.PHV().SetArray(batchID, keys)
				return nil
			},
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				centralSaw = append(centralSaw, ctx.PHV().Array(batchID)...)
				return nil
			},
		},
	}
	ctx, err := pl.Process(kvPkt(1, 10, 20, 30, 40), prog)
	if err != nil {
		t.Fatal(err)
	}
	pl.Release(ctx)
	if len(centralSaw) != 4 || centralSaw[0] != 10 || centralSaw[3] != 40 {
		t.Errorf("intra-pipeline array = %v", centralSaw)
	}
}

// --- graceful degradation under coflow state pressure ---

func coflowPkt(cf uint32, src, dst int) *packet.Packet {
	p := packet.BuildRaw(packet.Header{
		DstPort: uint16(dst), SrcPort: uint16(src), CoflowID: cf,
	}, 40)
	p.IngressPort = src
	return p
}

func TestCoflowDirectoryEvictsLRU(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxActiveCoflows = 2
	s, err := New(cfg, Programs{})
	if err != nil {
		t.Fatal(err)
	}
	// Coflows 1, 2 fill the directory; 3 must evict the least recently
	// seen (1).
	for _, cf := range []uint32{1, 2, 3} {
		if _, err := s.Process(coflowPkt(cf, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ActiveCoflows() != 2 {
		t.Fatalf("active = %d, want 2", s.ActiveCoflows())
	}
	if s.CoflowEvictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.CoflowEvictions())
	}
	// Touch 2 (now MRU), then admit 4: the victim must be 3, so a 2
	// arrival afterwards is NOT a readmission.
	if _, err := s.Process(coflowPkt(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(coflowPkt(4, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(coflowPkt(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.CoflowReadmissions() != 0 {
		t.Fatalf("readmissions = %d, want 0 (LRU touch ignored)", s.CoflowReadmissions())
	}
	// A packet of evicted coflow 1 returning is a readmission, with its own
	// eviction to make room.
	if _, err := s.Process(coflowPkt(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.CoflowReadmissions() != 1 {
		t.Fatalf("readmissions = %d, want 1", s.CoflowReadmissions())
	}
	if s.ActiveCoflows() != 2 {
		t.Fatalf("active = %d after readmission", s.ActiveCoflows())
	}
}

func TestCoflowDirectoryUnboundedByDefault(t *testing.T) {
	s, err := New(smallConfig(), Programs{})
	if err != nil {
		t.Fatal(err)
	}
	for cf := uint32(1); cf <= 50; cf++ {
		if _, err := s.Process(coflowPkt(cf, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ActiveCoflows() != 50 || s.CoflowEvictions() != 0 {
		t.Fatalf("active/evictions = %d/%d", s.ActiveCoflows(), s.CoflowEvictions())
	}
}

func TestNegativeMaxActiveCoflowsRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxActiveCoflows = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MaxActiveCoflows validated")
	}
}

func TestTolerateReorderingCountsLateDrops(t *testing.T) {
	cfg := smallConfig()
	cfg.TolerateReordering = true
	s, err := New(cfg, Programs{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	s.SetRankOrder(func(ctx *pipeline.Context) (uint64, uint64) {
		return uint64(ctx.Decoded.Base.FlowID), uint64(ctx.Decoded.Base.Seq)
	})
	p1 := packet.BuildRaw(packet.Header{FlowID: 1, Seq: 10}, 0)
	p1.IngressPort = 0
	if err := s.Accept(p1); err != nil {
		t.Fatal(err)
	}
	// The regression that TestMergeModeRejectsUnsortedFlow shows erroring
	// by default becomes a counted late drop.
	p2 := packet.BuildRaw(packet.Header{FlowID: 1, Seq: 5}, 0)
	p2.IngressPort = 0
	if err := s.Accept(p2); err != nil {
		t.Fatalf("tolerant mode errored: %v", err)
	}
	if s.LateDrops() != 1 {
		t.Fatalf("late drops = %d, want 1", s.LateDrops())
	}
}

// TestConstructionBudget pins what building a switch costs at the
// benchmark's geometry (16 ports, demux 2, 4+4 pipelines, 6 stages, 4096
// table entries and 1024 register cells per stage): table maps and register
// cells are made on first use, so an idle switch is headers only.
func TestConstructionBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CentralPipelines = 4
	cfg.Pipe.Stages = 6
	cfg.Pipe.TableEntriesPerStage = 4096
	cfg.Pipe.RegisterCellsPerStage = 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw, err := New(cfg, Programs{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes", got)
	if got > budget {
		t.Errorf("core.New allocated %d bytes, budget %d", got, budget)
	}
	runtime.KeepAlive(sw)
}
