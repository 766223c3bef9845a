package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/stats"
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
	t := stats.NewTable(
		"§4: multi-clock MAT memory (pipeline at 1.0 GHz)",
		"array width", "memory clock mult", "memory clock (GHz)", "pipeline cycles/batch",
	)
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
		wl := lbl("width", li(w))
		record("multiclock.memory_clock_ghz", row.MemoryClockGHz, wl)
		record("multiclock.pipeline_cycles", float64(row.PipelineCycles), wl)
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d×", row.MemoryClockMult),
			fmt.Sprintf("%.1f", row.MemoryClockGHz),
			fmt.Sprintf("%d", row.PipelineCycles),
		)
	}
	return t, rows, nil
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
	t := stats.NewTable(
		"§4: iso-throughput power/area for one 1.6 Tbps port (relative to a 1.62 GHz reference pipeline)",
		"design", "pipeline clock (GHz)", "pipelines", "relative power", "relative gate area/pipeline",
	)
	var rows []PowerRow
	for _, ways := range []int{1, 2, 4} {
		f := fullHz / float64(ways)
		row := PowerRow{
			Design:        fmt.Sprintf("1:%d demux", ways),
			PipelineGHz:   f / 1e9,
			Pipelines:     ways,
			RelativePower: m.IsoThroughputPower(fullHz, ways),
			RelativeArea:  analytic.RelativeGateArea(f, 1.62e9),
		}
		rows = append(rows, row)
		dl := lbl("design", row.Design)
		record("power.relative_power", row.RelativePower, dl)
		record("power.relative_area", row.RelativeArea, dl)
		t.AddRow(row.Design,
			fmt.Sprintf("%.2f", row.PipelineGHz),
			fmt.Sprintf("%d", row.Pipelines),
			fmt.Sprintf("%.3f", row.RelativePower),
			fmt.Sprintf("%.2f", row.RelativeArea),
		)
	}
	return t, rows, nil
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
	t := stats.NewTable(
		"§3.3: parse cost tracks structure, not payload",
		"protocol", "elements", "parse states", "header bytes parsed",
	)
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
		record("parsecost.states_visited", float64(row.StatesVisited),
			lbl("proto", row.Proto), lbl("elems", li(row.PayloadElems)))
		t.AddRow(row.Proto, fmt.Sprintf("%d", row.PayloadElems),
			fmt.Sprintf("%d", row.StatesVisited), fmt.Sprintf("%d", row.BytesConsumed))
	}
	return t, rows, nil
}

// Congestion runs the §4 floorplan comparison.
func Congestion() (*stats.Table, *floorplan.Report, *floorplan.Report) {
	mono, inter := floorplan.Monolithic(), floorplan.Interleaved()
	t := stats.NewTable(
		fmt.Sprintf("§4: g-cell routing congestion, %d×%d grid, %d-wire buses",
			floorplan.GridW, floorplan.GridH, floorplan.WiresPerBus),
		"floorplan", "peak congestion", "mean congestion", "overflowed cells",
	)
	record("congestion.peak", mono.PeakCongestion, lbl("floorplan", "monolithic"))
	record("congestion.overflowed_cells", float64(mono.Overflowed), lbl("floorplan", "monolithic"))
	record("congestion.peak", inter.PeakCongestion, lbl("floorplan", "interleaved"))
	record("congestion.overflowed_cells", float64(inter.Overflowed), lbl("floorplan", "interleaved"))
	t.AddRow("monolithic TMs", fmt.Sprintf("%.3f", mono.PeakCongestion),
		fmt.Sprintf("%.4f", mono.MeanCongestion), fmt.Sprintf("%d", mono.Overflowed))
	t.AddRow("interleaved TM slices", fmt.Sprintf("%.3f", inter.PeakCongestion),
		fmt.Sprintf("%.4f", inter.MeanCongestion), fmt.Sprintf("%d", inter.Overflowed))
	return t, mono, inter
}
