package experiments

import (
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// WalkReport traces one packet through every region of the ADCP
// architecture (Figure 4): demuxed ingress, first TM, global partitioned
// area, second TM, egress, port mux.
type WalkReport struct {
	IngressPipeline int
	CentralPipeline int
	EgressPipeline  int
	EgressPort      int
	TM1Enqueued     uint64
	TM2Enqueued     uint64
	Delivered       int
}

// Walk builds a default ADCP switch, sends one packet from port 3 to port
// 9, and reports the regions it traversed — the Figure 4 walkthrough.
func Walk() (*stats.Table, *WalkReport, error) {
	cfg := core.DefaultConfig()
	sw, err := core.New(cfg, core.Programs{})
	if err != nil {
		return nil, nil, err
	}
	pkt := packet.BuildRaw(packet.Header{DstPort: 9, SrcPort: 3, CoflowID: 5}, 64)
	pkt.IngressPort = 3
	out, err := sw.Process(pkt)
	if err != nil {
		return nil, nil, err
	}
	rep := &WalkReport{
		IngressPipeline: -1,
		CentralPipeline: -1,
		EgressPipeline:  sw.EgressPipelineOfPort(9),
		TM1Enqueued:     sw.TM1().Enqueued(),
		TM2Enqueued:     sw.TM2().Enqueued(),
		Delivered:       len(out),
	}
	for i := 0; i < sw.NumIngressPipelines(); i++ {
		if sw.Ingress(i).Packets() == 1 {
			rep.IngressPipeline = i
		}
	}
	for i := 0; i < cfg.CentralPipelines; i++ {
		if sw.Central(i).Packets() == 1 {
			rep.CentralPipeline = i
		}
	}
	if len(out) == 1 {
		rep.EgressPort = out[0].EgressPort
	}

	reg := telemetry.Hub().Reg()
	newTable(reg, "",
		col{metric: "exp.walk.delivered_pkts"},
		col{metric: "exp.walk.tm1_enqueued_pkts"},
		col{metric: "exp.walk.tm2_enqueued_pkts"},
	).AddRow(rep.Delivered, rep.TM1Enqueued, rep.TM2Enqueued)

	t := newTable(reg, "Figure 4: one packet through the ADCP regions (port 3 → port 9)",
		col{head: "region"}, col{head: "instance"}, col{head: "note"})
	t.AddRow("RX demux", []any{"port 3 → ingress pipeline %d", rep.IngressPipeline},
		[]any{"1:%d demultiplexing", cfg.DemuxFactor})
	t.AddRow("ingress pipeline", []any{"%d of %d", rep.IngressPipeline, sw.NumIngressPipelines()},
		[]any{"%d stages", cfg.Pipe.Stages})
	t.AddRow("traffic manager 1", []any{"enqueued=%d", rep.TM1Enqueued}, "application-defined partitioning")
	t.AddRow("global partitioned area", []any{"central pipeline %d of %d", rep.CentralPipeline, cfg.CentralPipelines},
		"array-capable stages")
	t.AddRow("traffic manager 2", []any{"enqueued=%d", rep.TM2Enqueued}, "classic scheduler, any port")
	t.AddRow("egress pipeline", []any{"%d of %d", rep.EgressPipeline, cfg.EgressPipelines}, "muxes back onto ports")
	t.AddRow("TX", []any{"port %d", rep.EgressPort}, []any{"%d packet(s) delivered", rep.Delivered})
	return t.Table, rep, nil
}
