// Package experiments assembles the repository's models into the paper's
// tables and figures. Every experiment Ei returns both a printable
// stats.Table (matching the paper's rows/series) and structured results
// that the test suite asserts on and the benchmark harness reports.
//
// An experiment writes each number once. Its tables declare their
// columns (table.go): header, cell format, and the exp.* series or label
// key the column's value is. One AddRow renders the text row and Sets the
// row's series into the metrics registry the table was built with.
//
// Each exported entry (Table1 … DemuxSweep) reads the process hub,
// telemetry.Hub(), once in its own body and hands it on: to its tables, to
// every netsim.Config it builds, and to runPointsSlot, whose points are
// handed hubs of their own. Taking the hub as an argument instead changes
// the entry signatures service.Experiment.Run and bench/ call, so it waits
// for the benchmark to stop calling them (ROADMAP.md item 3, after 1(b)).
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured outcomes.
package experiments

import (
	"repro/internal/analytic"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Table2 regenerates the paper's Table 2 (port multiplexing poor
// scalability).
func Table2() (*stats.Table, []analytic.Table2Row) {
	rows := analytic.Table2()
	t := newTable(telemetry.Hub().Reg(), "Table 2: Port multiplexing poor scalability",
		col{head: "Switch Tput", cell: f("%g Gbps"), label: "tput_gbps"}, col{head: "port speed (Gbps)"},
		col{head: "# pipelines"}, col{head: "ports/pipeline"}, col{head: "min pkt (B)"},
		col{head: "pipeline freq (GHz)", cell: f("%.2f"), metric: "exp.table2.pipeline_freq_ghz"})
	for _, r := range rows {
		t.AddRow(r.ThroughputGbps, r.PortSpeedGbps, r.Pipelines, r.PortsPerPipeline, r.MinPacketBytes, r.FreqGHz)
	}
	return t.Table, rows
}

// Table3 regenerates the paper's Table 3 (port demultiplexing examples).
func Table3() (*stats.Table, []analytic.Table3Row) {
	rows := analytic.Table3()
	t := newTable(telemetry.Hub().Reg(), "Table 3: Port demultiplexing examples",
		col{head: "port speed (Gbps)", label: "port_gbps"},
		col{head: "ports/pipeline", label: "ports_per_pipeline"}, col{head: "min pkt (B)"},
		col{head: "pipeline freq (GHz)", cell: f("%.2f"), metric: "exp.table3.pipeline_freq_ghz"})
	for _, r := range rows {
		t.AddRow(r.PortSpeedGbps, r.PortsPerPipeline, r.MinPacketBytes, r.FreqGHz)
	}
	return t.Table, rows
}
