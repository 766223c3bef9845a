package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// MultiClockRow is one point of the §4 multi-clock MAT memory analysis.
type MultiClockRow struct {
	ArrayWidth int
	// MemoryClockMult is the memory:pipeline clock ratio needed to retire
	// the whole array per pipeline cycle.
	MemoryClockMult int
	// MemoryClockGHz at a 1.0 GHz ADCP pipeline.
	MemoryClockGHz float64
	// PipelineCycles measured for one width-wide batch.
	PipelineCycles int
}

// MultiClock sweeps array widths through the §4 multi-clock design: the
// memory must clock width× the pipeline, which bounds how wide the array
// can grow before the memory clock itself becomes the Table 2 problem all
// over again.
func MultiClock(widths []int) (*stats.Table, []MultiClockRow, error) {
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8, 16}
	}
	const pipelineGHz = 1.0
	t := newTable(telemetry.Hub().Reg(), "§4: multi-clock MAT memory (pipeline at 1.0 GHz)",
		col{head: "array width", label: "width"}, col{head: "memory clock mult", cell: f("%d×")},
		col{head: "memory clock (GHz)", cell: f("%.1f"), metric: "exp.multiclock.memory_clock_ghz"},
		col{head: "pipeline cycles/batch", metric: "exp.multiclock.pipeline_cycles"})
	var rows []MultiClockRow
	for _, w := range widths {
		mem := mat.NewStageMemory(mat.ModeMultiClock, mat.StageMAUs, 4096, w)
		keys := make([]uint64, w)
		for i := range keys {
			keys[i] = uint64(i)
			mem.Install(uint64(i), mat.Result{})
		}
		cyc, err := mem.LookupBatch(keys, make([]mat.Result, w), make([]bool, w))
		if err != nil {
			return nil, nil, err
		}
		row := MultiClockRow{
			ArrayWidth:      w,
			MemoryClockMult: mem.MemoryClockMultiple(),
			MemoryClockGHz:  pipelineGHz * float64(mem.MemoryClockMultiple()),
			PipelineCycles:  cyc,
		}
		rows = append(rows, row)
		t.AddRow(w, row.MemoryClockMult, row.MemoryClockGHz, row.PipelineCycles)
	}
	return t.Table, rows, nil
}

// PowerRow is one point of the §4 power/area speculation, quantified.
type PowerRow struct {
	Design        string
	PipelineGHz   float64
	Pipelines     int
	RelativePower float64
	RelativeArea  float64
}

// Power compares iso-throughput designs for a 1.6 Tbps port with the
// first-order CMOS model: the monolithic 2.38 GHz pipeline versus 1:2 and
// 1:4 demultiplexed designs. §4: "speculatively, [lower frequency] can
// lower the power requirements ... [and] translate into using potentially
// smaller gates".
func Power() (*stats.Table, []PowerRow, error) {
	m := analytic.DefaultPowerModel()
	const fullHz = 2.38e9
	t := newTable(telemetry.Hub().Reg(),
		"§4: iso-throughput power/area for one 1.6 Tbps port (relative to a 1.62 GHz reference pipeline)",
		col{head: "design", label: "design"}, col{head: "pipeline clock (GHz)", cell: f("%.2f")},
		col{head: "pipelines"},
		col{head: "relative power", cell: f("%.3f"), metric: "exp.power.relative_power"},
		col{head: "relative gate area/pipeline", cell: f("%.2f"), metric: "exp.power.relative_area"})
	var rows []PowerRow
	for _, ways := range []int{1, 2, 4} {
		hz := fullHz / float64(ways)
		row := PowerRow{
			Design:        fmt.Sprintf("1:%d demux", ways),
			PipelineGHz:   hz / 1e9,
			Pipelines:     ways,
			RelativePower: m.IsoThroughputPower(fullHz, ways),
			RelativeArea:  analytic.RelativeGateArea(hz, 1.62e9),
		}
		rows = append(rows, row)
		t.AddRow(row.Design, row.PipelineGHz, row.Pipelines, row.RelativePower, row.RelativeArea)
	}
	return t.Table, rows, nil
}

// ParseCostRow is one point of the §3.3 parsing observation.
type ParseCostRow struct {
	Proto         string
	PayloadElems  int
	StatesVisited int
	BytesConsumed int
}

// ParseCost demonstrates §3.3's "parsing efficiency is linked to the
// complexity of structure within packets rather than port speed": states
// visited depend on the header structure (protocol), not on how much data
// the packet carries.
func ParseCost() (*stats.Table, []ParseCostRow, error) {
	g := packet.StandardGraph()
	t := newTable(telemetry.Hub().Reg(), "§3.3: parse cost tracks structure, not payload",
		col{head: "protocol", label: "proto"}, col{head: "elements", label: "elems"},
		col{head: "parse states", metric: "exp.parsecost.states_visited"}, col{head: "header bytes parsed"})
	var rows []ParseCostRow
	type c struct {
		name  string
		elems int
		pkt   *packet.Packet
	}
	mkML := func(n int) *packet.Packet {
		return packet.Build(packet.Header{Proto: packet.ProtoML}, &packet.MLHeader{Values: make([]uint32, n)})
	}
	mkKV := func(n int) *packet.Packet {
		return packet.Build(packet.Header{Proto: packet.ProtoKV}, &packet.KVHeader{Pairs: make([]packet.KVPair, n)})
	}
	cases := []c{
		{"raw", 1, packet.BuildRaw(packet.Header{}, 0)},
		{"raw", 1, packet.BuildRaw(packet.Header{}, 1400)},
		{"ml", 1, mkML(1)},
		{"ml", 16, mkML(16)},
		{"kv", 1, mkKV(1)},
		{"kv", 16, mkKV(16)},
	}
	for _, cse := range cases {
		res, err := g.Run(cse.pkt.Data, 0)
		if err != nil {
			return nil, nil, err
		}
		row := ParseCostRow{
			Proto:         cse.name,
			PayloadElems:  cse.elems,
			StatesVisited: res.StatesVisited,
			BytesConsumed: res.BytesConsumed,
		}
		rows = append(rows, row)
		t.AddRow(row.Proto, row.PayloadElems, row.StatesVisited, row.BytesConsumed)
	}
	return t.Table, rows, nil
}

// Congestion runs the §4 floorplan comparison.
func Congestion() (*stats.Table, *floorplan.Report, *floorplan.Report) {
	mono, inter := floorplan.Monolithic(), floorplan.Interleaved()
	t := newTable(telemetry.Hub().Reg(),
		fmt.Sprintf("§4: g-cell routing congestion, %d×%d grid, %d-wire buses", floorplan.GridW, floorplan.GridH, floorplan.WiresPerBus),
		col{label: "floorplan"}, col{head: "floorplan"},
		col{head: "peak congestion", cell: f("%.3f"), metric: "exp.congestion.peak"},
		col{head: "mean congestion", cell: f("%.4f")},
		col{head: "overflowed cells", metric: "exp.congestion.overflowed_cells"})
	t.AddRow("monolithic", "monolithic TMs", mono.PeakCongestion, mono.MeanCongestion, mono.Overflowed)
	t.AddRow("interleaved", "interleaved TM slices", inter.PeakCongestion, inter.MeanCongestion, inter.Overflowed)
	return t.Table, mono, inter
}
