package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// env is what a workload is given: everything else it derives from these.
type env struct {
	seed  uint64
	quick bool // ~1 % size, for tests
	// adcpsim is the path of the built CLI (sweep-build only).
	adcpsim string
	// tmp is a scratch directory inside the checkout, on a real disk.
	tmp string
	// calib times the reference kernel that host seconds are scaled by.
	calib calibrator
}

// unitStats is the outcome of one timed unit, filled in after the clock
// has stopped.
type unitStats struct {
	// attempted and failed count operations: packets, suite passes, jobs.
	attempted, failed int
	events, retx      uint64
	// mallocs, bytes and rssMiB are set by a unit whose work happened in a
	// child process, from the child's own accounting; zero means "measure
	// this process".
	mallocs, bytes uint64
	rssMiB         float64
	// sim is the unit's simulated statistics. Every unit of a run replays
	// the same inputs, so every unit must produce the same string; the
	// run's digest is the hash of it.
	sim string
}

// runner is a workload after set-up.
type runner interface {
	// prepare readies the next unit (fresh switches, fresh packet copies).
	// Not timed, but inside the run's time budget.
	prepare() error
	// unit runs one timed unit; with a non-nil tracer it records a span
	// around each call into a layer.
	unit(tr *tracer) error
	// verify checks the unit just run, after the clock has stopped.
	verify() unitStats
	close() error
}

// workloadSpec is one named benchmark input. why is shown in BENCHMARK.json
// and the README; op names what ops_per_s counts.
type workloadSpec struct {
	name, why, op string
	// outside, when set, is why the workload is not in BENCHMARK.json: the
	// suite still runs and prints it, nothing gates on it.
	outside string
	// minUnits and maxUnits override the time budget, for a workload that
	// needs the same number of units in every run: 0 is one unit at least
	// and no limit but the budget.
	minUnits, maxUnits int
	setup              func(e env) (runner, error)
}

var workloads = []workloadSpec{
	{
		name: "agg-line", op: "delivered packet",
		why:   "parameter aggregation at line rate: the per-packet path (packet, pipeline, core/rmt, tm, netsim hop, register RMW) does the work; 3 sim events per packet",
		setup: func(e env) (runner, error) { return newAgg(e, aggLine) },
	},
	{
		// A unit takes about half the budget, so the budget would let a fast
		// run have two and a slow run one, and the faster of two is not
		// comparable with the only one.
		name: "agg-saturated", op: "delivered packet", minUnits: 2, maxUnits: 2,
		why:   "same app with the switch as bottleneck (E16 scaled): sim dispatch and netsim's busy-requeue are over 90% of host time; at least 1e7 events per round",
		setup: func(e env) (runner, error) { return newAgg(e, aggSaturated) },
	},
	{
		name: "kv-get", op: "delivered packet",
		why:   "read-only Zipf KV cache through netsim: mat lookups (StageMemory.LookupBatch) and PHV array parse; what a faster exact-match table should win",
		setup: func(e env) (runner, error) { return newKV(e, 0) },
	},
	{
		name: "kv-mixed", op: "delivered packet",
		why:   "kv-get with 30% PUTs: StageMemory.Install beside lookups (an RMT PUT writes 8 replicas); a table that wins reads and loses writes shows here",
		setup: func(e env) (runner, error) { return newKV(e, 0.3) },
	},
	{
		name: "lossy-failover", op: "delivered packet",
		why:   "agg-line under 1% loss with a warm standby and a switch crash: cancellable ARQ timers, Packet.Clone, ha delta log and promotion, none of which agg-line touches",
		setup: func(e env) (runner, error) { return newAgg(e, aggFailover) },
	},
	{
		name: "sweep-build", op: "suite pass",
		why:   "adcpsim -exp all -parallel 1 -metrics as a subprocess: 18 experiments build their switches from scratch; construction, registry retention, merge and export dominate",
		setup: newSweep,
	},
	{
		name: "daemon-jobs", op: "job", maxUnits: daemonJobs,
		why:     "in-process job daemon on a real directory, closed loop, 1 client, 600 analytic table3 jobs: journaled FSM, run dir, result commit; fsync-bound",
		outside: "its timings are the disk's (fsync and directory operations are 85-95% of a job) and spread 50% between runs on this box",
		setup:   newDaemon,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The switch geometry is the experiments' own (internal/experiments
// rmtConfig/adcpConfig): 16 ports, 4 pipelines, 6 stages, ADCP demux 2.
const (
	benchPorts     = 16
	benchPipelines = 4
	benchStages    = 6
)

func rmtGeometry(tableEntries, regCells int) rmt.Config {
	c := rmt.DefaultConfig()
	c.Ports = benchPorts
	c.Pipelines = benchPipelines
	c.Pipe.Stages = benchStages
	c.Pipe.TableEntriesPerStage = tableEntries
	c.Pipe.RegisterCellsPerStage = regCells
	return c
}

func adcpGeometry(tableEntries, regCells int) core.Config {
	c := core.DefaultConfig()
	c.Ports = benchPorts
	c.DemuxFactor = 2
	c.CentralPipelines = benchPipelines
	c.EgressPipelines = benchPipelines
	c.Pipe.Stages = benchStages
	c.Pipe.TableEntriesPerStage = tableEntries
	c.Pipe.RegisterCellsPerStage = regCells
	return c
}

// tap decorates a switch model on its way into netsim. It always forwards
// the optional interfaces netsim probes for; it records arrival order when
// order is non-nil (the KV shadow map replays it) and times every call
// when timed (the traced run's switch.process aggregate).
type tap struct {
	inner netsim.SwitchModel
	timed bool
	total time.Duration
	calls uint64
	order []*packet.Packet
}

func (t *tap) Process(pkt *packet.Packet) ([]*packet.Packet, error) {
	if t.order != nil {
		t.order = append(t.order, pkt)
	}
	if !t.timed {
		return t.inner.Process(pkt)
	}
	start := time.Now()
	outs, err := t.inner.Process(pkt)
	t.total += time.Since(start)
	t.calls++
	return outs, err
}

func (t *tap) IngressTraversals() uint64 {
	return t.inner.(netsim.TraversalCounter).IngressTraversals()
}

func (t *tap) Instrument(tel *telemetry.Telemetry, now func() sim.Time) {
	t.inner.(netsim.Instrumentable).Instrument(tel, now)
}
