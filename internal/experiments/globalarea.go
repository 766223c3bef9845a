package experiments

import (
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// GlobalAreaReport captures the Figure 5 demonstration: state placed by an
// application-defined criterion across central pipelines, results
// delivered to every port regardless of placement, plus the TM1 merge
// capability.
type GlobalAreaReport struct {
	// TraversalsPerCentral shows the partitioning spread.
	TraversalsPerCentral []uint64
	// PortsReached counts distinct output ports that received results.
	PortsReached int
	// CrossPipelineDeliveries counts results whose egress pipeline
	// differs from the central pipeline holding their state — the
	// capability RMT egress processing lacks.
	CrossPipelineDeliveries int
	// MergeOrdered reports whether the TM1 merge drained two sorted flows
	// in global order.
	MergeOrdered bool
	MergedCount  int
}

// GlobalArea runs a parameter aggregation across all central pipelines and
// verifies the Figure 5 properties.
func GlobalArea() (*stats.Table, *GlobalAreaReport, error) {
	cfg := core.DefaultConfig()
	cfg.Ports = 16
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 8
	cfg.EgressPipelines = 4
	cfg.Pipe.Stages = 4
	cfg.Pipe.RegisterCellsPerStage = 2048

	ps := apps.PSConfig{Workers: 12, ModelSize: 128, Width: 16}
	tel := telemetry.Hub()
	sw, err := apps.NewParamServerADCP(cfg, ps)
	if err != nil {
		return nil, nil, err
	}
	res, err := apps.RunParamServer(sw, netConfig(tel, 16), ps, 1, 2024)
	if err != nil {
		return nil, nil, err
	}

	rep := &GlobalAreaReport{}
	for i := 0; i < cfg.CentralPipelines; i++ {
		rep.TraversalsPerCentral = append(rep.TraversalsPerCentral, sw.Central(i).Packets())
	}
	for w := 0; w < ps.Workers; w++ {
		if len(res.Network.Host(w).Received) > 0 {
			rep.PortsReached++
		}
	}
	// Every chunk's state lives on central pipeline chunk%8, results fan
	// to all 12 worker ports across 4 egress pipelines: count pairs where
	// the state pipeline's "natural" egress pipeline differs from the
	// delivery's.
	chunks := ps.ModelSize / ps.Width
	for c := 0; c < chunks; c++ {
		stateCP := c % cfg.CentralPipelines
		for w := 0; w < ps.Workers; w++ {
			if sw.EgressPipelineOfPort(w) != stateCP%cfg.EgressPipelines {
				rep.CrossPipelineDeliveries++
			}
		}
	}
	// Merge demonstration (§3.1 first-TM semantics).
	ordered, count, err := mergeDemo()
	if err != nil {
		return nil, nil, err
	}
	rep.MergeOrdered = ordered
	rep.MergedCount = count

	newTable(tel.Reg(), "",
		col{metric: "exp.globalarea.ports_reached"},
		col{metric: "exp.globalarea.cross_pipeline_deliveries"},
		col{metric: "exp.globalarea.merge_ordered"},
	).AddRow(rep.PortsReached, rep.CrossPipelineDeliveries, rep.MergeOrdered)

	t := newTable(tel.Reg(), "Figure 5: the global partitioned area decouples state placement from output ports",
		col{head: "property"}, col{head: "value"})
	t.AddRow("central traversal spread", rep.TraversalsPerCentral)
	t.AddRow("worker ports receiving results", []any{"%d of %d", rep.PortsReached, ps.Workers})
	t.AddRow("cross-pipeline deliveries", rep.CrossPipelineDeliveries)
	t.AddRow("TM1 merge of sorted flows", []any{"ordered=%v over %d packets", rep.MergeOrdered, rep.MergedCount})
	return t.Table, rep, nil
}

// mergeDemo pushes two per-flow sorted streams through a rank-ordered TM1
// and checks the drain is globally sorted.
func mergeDemo() (bool, int, error) {
	cfg := core.DefaultConfig()
	cfg.Ports = 8
	cfg.DemuxFactor = 1
	cfg.CentralPipelines = 2
	cfg.EgressPipelines = 2
	cfg.Pipe.Stages = 2

	var seqs []uint32
	prog := core.Programs{Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
		func(st *pipeline.Stage, ctx *pipeline.Context) error {
			seqs = append(seqs, ctx.Decoded.Base.Seq)
			ctx.Egress = 0
			return nil
		},
	}}}
	sw, err := core.New(cfg, prog)
	if err != nil {
		return false, 0, err
	}
	sw.SetPartition(func(ctx *pipeline.Context) int { return 0 })
	sw.SetRankOrder(func(ctx *pipeline.Context) (uint64, uint64) {
		return uint64(ctx.Decoded.Base.FlowID), uint64(ctx.Decoded.Base.Seq)
	})
	// Flow 1: 0,2,4,...; flow 2: 1,3,5,... accepted interleaved oddly.
	for i := 0; i < 10; i++ {
		p := packet.BuildRaw(packet.Header{DstPort: 0, FlowID: 1, Seq: uint32(2 * i)}, 0)
		p.IngressPort = 0
		if err := sw.Accept(p); err != nil {
			return false, 0, err
		}
	}
	for i := 0; i < 10; i++ {
		p := packet.BuildRaw(packet.Header{DstPort: 0, FlowID: 2, Seq: uint32(2*i + 1)}, 0)
		p.IngressPort = 1
		if err := sw.Accept(p); err != nil {
			return false, 0, err
		}
	}
	if _, err := sw.Flush(); err != nil {
		return false, 0, err
	}
	ordered := sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return ordered, len(seqs), nil
}
