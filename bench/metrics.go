package main

// metricDef names one metric of BENCHMARK.json. The tables below are the
// source; a test checks that BENCHMARK.json says the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, relative
}

// endToEnd is measured with tracing off, by every workload. An operation
// ("op") is what the workload's users count: a verified delivered packet
// for the five packet workloads, a suite pass for sweep-build, a finished
// job for daemon-jobs. Seconds are calibrated host seconds. The bounds on
// the three timings
// are the contract's widest because the box is that noisy: README.md has
// the spreads they were set from.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "unit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// spanMetrics come from the traced units of the workload itself: seconds
// are host seconds per unit spent under spans of that name.
var spanMetrics = []metricDef{
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "apps.build_s", Unit: "s", Better: "lower"},
	{Name: "netsim.new_s", Unit: "s", Better: "lower"},
	{Name: "netsim.inject_s", Unit: "s", Better: "lower"},
	{Name: "netsim.run_s", Unit: "s", Better: "lower"},
	{Name: "switch.process_s", Unit: "s", Better: "lower"},
	{Name: "switch.process_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.run_self_s", Unit: "s", Better: "lower"},
	{Name: "apps.verify_s", Unit: "s", Better: "lower"},
	{Name: "suite.pass_s", Unit: "s", Better: "lower"},
	{Name: "service.submit_s", Unit: "s", Better: "lower"},
	{Name: "service.wait_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower"},
	{Name: "netsim.retx", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
