package experiments

import (
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// BufferRow is one point of the TM buffer-sizing sweep.
type BufferRow struct {
	BufferBytes int
	Fanout      int
	Delivered   uint64
	Dropped     uint64
	LossRate    float64
	PeakBytes   int
}

// BufferSweep stresses TM2 with switch-generated incast: one ingress
// packet multicast to `fanout` ports of ONE egress pipeline, for a range
// of shared-buffer sizes. The output-buffered shared-memory TM (paper §2,
// [1]) absorbs fan-out until the buffer runs out; the sweep maps the knee.
func BufferSweep(bufferSizes []int) (*stats.Table, []BufferRow, error) {
	if len(bufferSizes) == 0 {
		bufferSizes = []int{1 * packet.MinWireLen, 4 * packet.MinWireLen, 16 * packet.MinWireLen, 64 * packet.MinWireLen}
	}
	const fanout = 4 // ports 0..3 share egress pipeline 0
	const packets = 16
	t := newTable(telemetry.Hub().Reg(), "TM buffer sizing under switch-generated incast (4:1 fan-out onto one egress pipeline)",
		col{head: "TM2 buffer (B)", label: "buffer_bytes"},
		col{head: "delivered", metric: "exp.buffer.delivered_pkts"}, col{head: "dropped"},
		col{head: "loss rate", cell: pct("%.1f%%"), metric: "exp.buffer.loss_rate"},
		col{head: "peak occupancy (B)", metric: "exp.buffer.peak_bytes"})
	var rows []BufferRow
	for _, buf := range bufferSizes {
		cfg := core.DefaultConfig()
		cfg.Ports = 8
		cfg.DemuxFactor = 1
		cfg.CentralPipelines = 2
		cfg.EgressPipelines = 2
		cfg.TM2BufferBytes = buf
		cfg.Pipe.Stages = 2
		prog := core.Programs{Central: &pipeline.Program{Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				ctx.Multicast = []int{0, 1, 2, 3}
				return nil
			},
		}}}
		sw, err := core.New(cfg, prog)
		if err != nil {
			return nil, nil, err
		}
		sw.SetPartition(func(ctx *pipeline.Context) int { return 0 })
		// Accept a burst, then flush once: the TM must hold the whole
		// fan-out of the burst.
		for i := 0; i < packets; i++ {
			p := packet.BuildRaw(packet.Header{DstPort: 0, SrcPort: 4, CoflowID: 1}, 0)
			p.IngressPort = 4
			if err := sw.Accept(p); err != nil {
				return nil, nil, err
			}
		}
		out, err := sw.Flush()
		if err != nil {
			return nil, nil, err
		}
		row := BufferRow{
			BufferBytes: buf,
			Fanout:      fanout,
			Delivered:   uint64(len(out)),
			Dropped:     sw.TM2().Dropped(),
			PeakBytes:   sw.TM2().PeakOccupancy(),
		}
		total := float64(row.Delivered + row.Dropped)
		if total > 0 {
			row.LossRate = float64(row.Dropped) / total
		}
		rows = append(rows, row)
		t.AddRow(buf, row.Delivered, row.Dropped, row.LossRate, row.PeakBytes)
	}
	return t.Table, rows, nil
}
