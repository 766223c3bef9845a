package experiments

import (
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// DemuxRow is one point of the §3.3 demux-factor ablation.
type DemuxRow struct {
	Factor int
	// RequiredClockGHz for a 1.6 Tbps port at the 84 B minimum packet.
	RequiredClockGHz float64
	// IngressPipelines for a 16-port switch.
	IngressPipelines int
	// MeasuredSpread: packets landing on each of one port's pipelines
	// after 64 injections (round-robin demux should be uniform).
	MeasuredSpread []uint64
}

// DemuxSweep ablates the demultiplexing factor m: required clock scales as
// 1/m (the Table 3 mechanism) while pipeline count scales as m (the cost
// the TM must absorb). Verified functionally on a live ADCP switch.
func DemuxSweep(factors []int) (*stats.Table, []DemuxRow, error) {
	if len(factors) == 0 {
		factors = []int{1, 2, 4}
	}
	const portGbps = 1600
	const ports = 16
	t := newTable(telemetry.Hub().Reg(), "§3.3 ablation: demux factor m (1.6 Tbps ports, 84 B min packet, 16-port switch)",
		col{head: "m", cell: f("1:%d"), label: "m"},
		col{head: "required clock (GHz)", cell: f("%.2f"), metric: "exp.demux.required_clock_ghz"},
		col{head: "ingress pipelines", metric: "exp.demux.ingress_pipelines"},
		col{head: "per-pipeline load spread"})
	var rows []DemuxRow
	for _, m := range factors {
		freq, err := analytic.DemuxFreqHz(portGbps, m, analytic.MinWirePacket)
		if err != nil {
			return nil, nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Ports = ports
		cfg.DemuxFactor = m
		cfg.CentralPipelines = 4
		cfg.EgressPipelines = 4
		cfg.Pipe.Stages = 2
		sw, err := core.New(cfg, core.Programs{})
		if err != nil {
			return nil, nil, err
		}
		// 64 packets from port 5: demux must spread them 64/m each.
		for i := 0; i < 64; i++ {
			pkt := packet.BuildRaw(packet.Header{DstPort: 1, SrcPort: 5}, 0)
			pkt.IngressPort = 5
			if _, err := sw.Process(pkt); err != nil {
				return nil, nil, err
			}
		}
		spread := make([]uint64, m)
		for j := 0; j < m; j++ {
			spread[j] = sw.Ingress(5*m + j).Packets()
		}
		row := DemuxRow{
			Factor:           m,
			RequiredClockGHz: freq / 1e9,
			IngressPipelines: sw.NumIngressPipelines(),
			MeasuredSpread:   spread,
		}
		rows = append(rows, row)
		t.AddRow(m, row.RequiredClockGHz, row.IngressPipelines, spread)
	}
	return t.Table, rows, nil
}
