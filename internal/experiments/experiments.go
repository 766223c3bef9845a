// Package experiments assembles the repository's models into the paper's
// tables and figures. Every experiment Ei returns both a printable
// stats.Table (matching the paper's rows/series) and structured results
// that the test suite asserts on and the benchmark harness reports.
//
// An experiment writes each number once. Its tables declare their
// columns (table.go): header, cell format, and the exp.* series or label
// key the column's value is. One AddRow renders the text row and Sets the
// row's series into the metrics registry the table bound when it was built.
// That binding reads the ambient telemetry.Hub(); besides runPointsSlot,
// which hands the same hub to the sweep pool, it is the package's only
// ambient read. Handing the sink in explicitly means changing the exported
// entry points (Table1 … DemuxSweep), service.Experiment.Run and
// parallel.Point.Run, which bench/ compiles against, so it waits for the
// benchmark to stop calling them (ROADMAP.md item 1(b)).
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured outcomes.
package experiments

import (
	"repro/internal/analytic"
	"repro/internal/stats"
)

// Table2 regenerates the paper's Table 2 (port multiplexing poor
// scalability).
func Table2() (*stats.Table, []analytic.Table2Row) {
	rows := analytic.Table2()
	t := newTable("Table 2: Port multiplexing poor scalability",
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
	t := newTable("Table 3: Port demultiplexing examples",
		col{head: "port speed (Gbps)", label: "port_gbps"},
		col{head: "ports/pipeline", label: "ports_per_pipeline"}, col{head: "min pkt (B)"},
		col{head: "pipeline freq (GHz)", cell: f("%.2f"), metric: "exp.table3.pipeline_freq_ghz"})
	for _, r := range rows {
		t.AddRow(r.PortSpeedGbps, r.PortsPerPipeline, r.MinPacketBytes, r.FreqGHz)
	}
	return t.Table, rows
}
