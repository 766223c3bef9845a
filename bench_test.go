// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its experiment and reports the headline
// quantity as custom metrics (ReportMetric), so `go test -bench=. -benchmem`
// prints the reproduced series alongside simulator throughput.
//
// Experiment index (see DESIGN.md §3):
//
//	BenchmarkTable1Apps        — Table 1  (E1)
//	BenchmarkTable2Sweep       — Table 2  (E2)
//	BenchmarkTable3Demux       — Table 3  (E3)
//	BenchmarkFig2Convergence   — Figures 1+2 (E4)
//	BenchmarkFig3Replication   — Figure 3 (E5)
//	BenchmarkFig4Walk          — Figure 4 (E6)
//	BenchmarkFig5GlobalArea    — Figure 5 (E7)
//	BenchmarkFig6ArrayWidth    — Figure 6 / §3.2 (E8)
//	BenchmarkSec4MultiClock    — §4 multi-clock memory (E9)
//	BenchmarkSec4Congestion    — §4 g-cell congestion (E9)
//	BenchmarkTensionSweep      — §1 motivation (E10)
//	BenchmarkCoflowSched       — §5 scheduling extension (E12)
//	BenchmarkDemuxSweep        — §3.3 ablation (E13)
//	BenchmarkCacheHit          — Zipf caching effectiveness (E15)
//	BenchmarkSaturation        — §2 recirculation tax as CCT (E16)
package repro

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/perf"
	"repro/internal/rmt"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/swswitch"
	"repro/internal/telemetry"
)

// TestMain adds a machine-readable export path to the benchmark harness:
// with BENCH_JSON=<path> set, every experiment headline metric recorded
// during the run (the same exp.* series `adcpsim -metrics` exports) is
// written to <path> as one deterministic JSON document. Example:
//
//	BENCH_JSON=BENCH_table1.json go test -run '^$' -bench BenchmarkTable1Apps .
func TestMain(m *testing.M) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		os.Exit(m.Run())
	}
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	var code int
	telemetry.WithDefault(tel, func() { code = m.Run() })
	if err := writeBenchMetrics(path, tel.Reg()); err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_JSON: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func writeBenchMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BenchmarkTable1Apps runs the four coflow applications end-to-end on both
// architectures (E1). Reported metrics: RMT-vs-ADCP CCT ratio per app.
func BenchmarkTable1Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				ratio := float64(r.RMTCCT) / float64(r.ADCPCCT)
				b.ReportMetric(ratio, "cct-ratio:"+shortName(r.App))
			}
		}
	}
}

func shortName(app string) string {
	switch {
	case len(app) == 0:
		return "?"
	default:
		for i, c := range app {
			if c == ' ' {
				return app[:i]
			}
		}
		return app
	}
}

// BenchmarkTable2Sweep regenerates Table 2 (E2) and reports each row's
// required pipeline frequency in GHz.
func BenchmarkTable2Sweep(b *testing.B) {
	var rows []analytic.Table2Row
	for i := 0; i < b.N; i++ {
		rows = analytic.Table2()
	}
	for _, r := range rows {
		b.ReportMetric(analytic.RoundGHz(r.FreqGHz*1e9),
			fmt.Sprintf("GHz@%gG", r.ThroughputGbps))
	}
}

// BenchmarkTable3Demux regenerates Table 3 (E3) and reports the demuxed
// frequencies.
func BenchmarkTable3Demux(b *testing.B) {
	var rows []analytic.Table3Row
	for i := 0; i < b.N; i++ {
		rows = analytic.Table3()
	}
	for _, r := range rows {
		b.ReportMetric(analytic.RoundGHz(r.FreqGHz*1e9),
			fmt.Sprintf("GHz@%gGx%gppp", r.PortSpeedGbps, r.PortsPerPipeline))
	}
}

// BenchmarkFig2Convergence runs the coflow-convergence experiment (E4) and
// reports RMT's ingress overhead for the widest coflow.
func BenchmarkFig2Convergence(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Convergence(experiments.DefaultConvergenceConfig(), []int{15})
		if err != nil {
			b.Fatal(err)
		}
		overhead = rows[0].RMTOverhead
	}
	b.ReportMetric(overhead, "rmt-ingress-overhead")
	b.ReportMetric(0, "adcp-ingress-overhead")
}

// BenchmarkFig3Replication runs the table-replication experiment (E5) and
// reports the capacity ratio at 16 keys/packet.
func BenchmarkFig3Replication(b *testing.B) {
	var rows []experiments.ReplicationRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Replication([]int{16})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(float64(r.ADCPMeasuredCap)/float64(r.RMTMeasuredCap), "capacity-ratio@k16")
}

// BenchmarkFig4Walk traces the ADCP region walk (E6).
func BenchmarkFig4Walk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Walk(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5GlobalArea runs the global-partitioned-area demonstration
// (E7) and reports the ports reached from partitioned state.
func BenchmarkFig5GlobalArea(b *testing.B) {
	var rep *experiments.GlobalAreaReport
	for i := 0; i < b.N; i++ {
		var err error
		_, rep, err = experiments.GlobalArea()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PortsReached), "ports-reached")
	b.ReportMetric(float64(rep.CrossPipelineDeliveries), "cross-pipeline-deliveries")
}

// BenchmarkFig6ArrayWidth runs the key-rate sweep (E8) and reports the
// modeled speedup at each width — the paper's 16× claim.
func BenchmarkFig6ArrayWidth(b *testing.B) {
	var rows []experiments.KeyRateRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.KeyRate(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, fmt.Sprintf("speedup@w%d", r.Width))
	}
}

// BenchmarkFig6MeasuredLookups measures actual simulator lookup throughput
// for scalar-vs-array stage memory — the wall-clock shape behind E8.
func BenchmarkFig6MeasuredLookups(b *testing.B) {
	for _, mode := range []struct {
		name string
		mem  *mat.StageMemory
	}{
		{"scalar", mat.NewStageMemory(mat.ModeScalar, 16, 64*1024, 1)},
		{"array16", mat.NewStageMemory(mat.ModeArray, 16, 64*1024, 1)},
	} {
		keys := make([]uint64, 16)
		for i := range keys {
			keys[i] = uint64(i)
			mode.mem.Install(uint64(i), mat.Result{})
		}
		results := make([]mat.Result, 16)
		hits := make([]bool, 16)
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode.mem.Mode() == mat.ModeScalar {
					for _, k := range keys {
						mode.mem.Lookup(k)
					}
				} else {
					if _, err := mode.mem.LookupBatch(keys, results, hits); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkSec4MultiClock runs the multi-clock memory analysis (E9).
func BenchmarkSec4MultiClock(b *testing.B) {
	var rows []experiments.MultiClockRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.MultiClock(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.MemoryClockGHz, "memGHz@w16")
}

// BenchmarkSec4Congestion runs the floorplan comparison (E9) and reports
// the peak-congestion ratio between monolithic and interleaved TMs.
func BenchmarkSec4Congestion(b *testing.B) {
	var mono, inter *floorplan.Report
	for i := 0; i < b.N; i++ {
		var err error
		_, mono, inter, err = experiments.Congestion(floorplan.DefaultFloorplanParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mono.PeakCongestion/inter.PeakCongestion, "peak-ratio")
}

// BenchmarkTensionSweep runs the §1 motivation sweep (E10) and reports the
// hardware/software throughput gap at small programs.
func BenchmarkTensionSweep(b *testing.B) {
	var rows []experiments.TensionRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Tension(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RMTPPS/rows[0].SoftwarePPS, "hw/sw-gap@1op")
}

// --- throughput micro-benchmarks on the switch models themselves ---

// BenchmarkRMTForwarding measures simulator packets/sec through a full RMT
// switch path (ingress → TM → egress).
func BenchmarkRMTForwarding(b *testing.B) {
	cfg := rmt.DefaultConfig()
	cfg.Ports = 16
	cfg.Pipelines = 4
	sw, err := rmt.New(cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := packet.BuildRaw(packet.Header{DstPort: uint16((i + 1) % 16)}, 40)
		pkt.IngressPort = i % 16
		if _, err := sw.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkADCPForwarding measures simulator packets/sec through the full
// ADCP path (ingress → TM1 → central → TM2 → egress).
func BenchmarkADCPForwarding(b *testing.B) {
	cfg := core.DefaultConfig()
	sw, err := core.New(cfg, core.Programs{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := packet.BuildRaw(packet.Header{DstPort: uint16((i + 1) % 16)}, 40)
		pkt.IngressPort = i % 16
		if _, err := sw.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// adcpParamServerRound builds a 16-port ADCP parameter server with the given
// register cells per stage and runs one aggregation round through netsim at
// line rate.
func adcpParamServerRound(b *testing.B, ps apps.PSConfig, regCells int) {
	cfg := core.DefaultConfig()
	cfg.Ports = 16
	cfg.DemuxFactor = 2
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 4
	cfg.Pipe.Stages = 6
	cfg.Pipe.RegisterCellsPerStage = regCells
	sw, err := apps.NewParamServerADCP(cfg, ps)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := apps.RunParamServer(sw, netsim.DefaultConfig(16), ps, 1, 5); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParamServerRound measures a full aggregation round end-to-end
// on both architectures (the Table 1 headline app at benchmark scale).
func BenchmarkParamServerRound(b *testing.B) {
	ps := apps.PSConfig{Workers: 12, ModelSize: 64, Width: 4}
	b.Run("adcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adcpParamServerRound(b, ps, 1024)
		}
	})
	b.Run("rmt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := rmt.DefaultConfig()
			cfg.Ports = 16
			cfg.Pipelines = 4
			pipe := cfg.Pipe
			pipe.Stages = 6
			pipe.RegisterCellsPerStage = 1024
			cfg.Pipe = pipe
			sw, err := apps.NewParamServerRMT(cfg, ps)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := apps.RunParamServer(sw, netsim.DefaultConfig(16), ps, 1, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSoftwareSwitch measures the run-to-completion model's simulated
// forwarding rate (the E10 baseline substrate).
func BenchmarkSoftwareSwitch(b *testing.B) {
	sw, err := swswitch.New(swswitch.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkt := packet.BuildRaw(packet.Header{DstPort: 3}, 40)
	handler := func(d *packet.Decoded) ([]int, int) { return []int{int(d.Base.DstPort)}, 8 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Process(pkt, handler); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoflowSched runs the §5 coflow-aware scheduling comparison
// (E12) and reports the FIFO/SCF mean-CCT ratio.
func BenchmarkCoflowSched(b *testing.B) {
	var results []experiments.CoflowSchedResult
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = experiments.CoflowSched(experiments.DefaultCoflowSchedConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	var fifo, scf float64
	for _, r := range results {
		switch r.Discipline {
		case "FIFO (packet-unit)":
			fifo = float64(r.MeanCCT)
		case "shortest-coflow-first (coflow-unit)":
			scf = float64(r.MeanCCT)
		}
	}
	b.ReportMetric(fifo/scf, "fifo/scf-mean-cct")
}

// BenchmarkCacheHit runs the Zipf cache sweep (E15) and reports the hit
// rate of a 256-entry cache at skew 1.2.
func BenchmarkCacheHit(b *testing.B) {
	var rows []experiments.CacheHitRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.CacheHit([]int{256}, []float64{1.2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].HitRate, "hit-rate@256:zipf1.2")
}

// BenchmarkSaturation runs parameter aggregation with the switch as the
// bottleneck (E16) and reports how much longer RMT's recirculated passes
// make the coflow.
func BenchmarkSaturation(b *testing.B) {
	var rows []experiments.SaturationRow
	for i := 0; i < b.N; i++ {
		var err error
		if _, rows, err = experiments.Saturation(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].CCT)/float64(rows[0].CCT), "cct-ratio:rmt/adcp")
}

// BenchmarkDemuxSweep runs the §3.3 ablation (E13) and reports the clock
// reduction at 1:4.
func BenchmarkDemuxSweep(b *testing.B) {
	var rows []experiments.DemuxRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.DemuxSweep(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RequiredClockGHz/rows[len(rows)-1].RequiredClockGHz, "clock-reduction@1:4")
}

// BenchmarkParallelFailoverSweep measures the sweep engine's wall-clock
// speedup: the full failover sweep (14 independent points) at pool width 1
// vs width 4. Reported metrics: both wall times and the speedup ratio;
// with BENCH_JSON set the same numbers land as exp.parallel.* series. The
// ratio reflects the machine it ran on — on a single-core container the
// honest answer is ~1.0x; with 4+ cores the independent points overlap and
// the sweep approaches the slowest-point bound (≥2x in practice). Excluded
// from BENCH_SUBSET/bench_baseline.json: wall-clock ratios are not
// deterministic, unlike the simulated headline metrics pinned there.
func BenchmarkParallelFailoverSweep(b *testing.B) {
	sweep := func(workers int) time.Duration {
		prev := experiments.SetParallelism(workers)
		defer experiments.SetParallelism(prev)
		start := time.Now()
		if _, _, err := experiments.Failover(nil, nil); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		seq += sweep(1)
		par += sweep(4)
	}
	speedup := float64(seq) / float64(par)
	b.ReportMetric(seq.Seconds()/float64(b.N), "seq-s")
	b.ReportMetric(par.Seconds()/float64(b.N), "par4-s")
	b.ReportMetric(speedup, "speedup-4w")
	if reg := telemetry.Hub().Reg(); reg != nil {
		reg.Set("exp.parallel.seq_wall_s", seq.Seconds()/float64(b.N))
		reg.Set("exp.parallel.par4_wall_s", par.Seconds()/float64(b.N))
		reg.Set("exp.parallel.speedup_4w", speedup)
		reg.Set("exp.parallel.cpus", float64(runtime.NumCPU()))
	}
}

// BenchmarkSpanOverhead pins the cost of the causal-span layer on the
// saturation workload (the worked example in docs/OBSERVABILITY.md).
// "off" is the default hot path — telemetry masked entirely, so the
// instrumentation is one nil/bool check per event and no chain is ever
// allocated; "on" attaches a registry and tracer, so every packet carries
// a causal chain, span events are emitted, and the critical path is
// walked. Wall-clock per-run times are reported as benchmark metrics
// (machine-dependent, excluded from the baseline); the deterministic
// facts of the instrumented run — span event count, critical-path bucket
// sum, and the CCT it must equal — are recorded as exp.spanoverhead.*
// series so bench_baseline.json pins them.
func BenchmarkSpanOverhead(b *testing.B) {
	sat := func() []experiments.SaturationRow {
		_, rows, err := experiments.Saturation()
		if err != nil {
			b.Fatal(err)
		}
		return rows
	}
	var offS, onS float64
	b.Run("off", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			telemetry.WithHub(nil, func() {
				rows := sat()
				if rows[0].AttrOK {
					b.Fatal("attribution ran with telemetry masked off")
				}
			})
		}
		offS = time.Since(start).Seconds() / float64(b.N)
	})
	var spanEvents int
	var attrSum, cct sim.Time
	b.Run("on", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
			telemetry.WithHub(tel, func() {
				rows := sat()
				if !rows[0].AttrOK {
					b.Fatal("attribution missing with telemetry on")
				}
				attrSum, cct = rows[0].Attr.Sum(), rows[0].CCT
			})
			spanEvents = 0
			for _, ev := range tel.Tracer.Events() {
				if ev.Cat == "span" {
					spanEvents++
				}
			}
		}
		onS = time.Since(start).Seconds() / float64(b.N)
		if offS > 0 {
			b.ReportMetric(onS/offS, "on/off-wall")
		}
	})
	if attrSum != cct {
		b.Fatalf("critical-path buckets sum to %d ps, CCT is %d ps", attrSum, cct)
	}
	if reg := telemetry.Hub().Reg(); reg != nil {
		reg.Set("exp.spanoverhead.span_events", float64(spanEvents))
		reg.Set("exp.spanoverhead.attr_sum_ps", float64(attrSum))
		reg.Set("exp.spanoverhead.cct_ps", float64(cct))
	}
}

// BenchmarkEngine measures the discrete-event core itself on a
// saturation-shaped event mix: mostly short timers (wheel level 0), a
// slice of same-timestamp batch members, mid-range timers that exercise
// the cascade levels, and occasional long timers. The "saturation"
// sub-benchmark runs the hierarchical timing wheel with pooled events and
// records `sim.events_per_s` (benchcheck floor) and `sim.allocs_per_event`
// (benchcheck ceiling). The committed bench_baseline.json value for
// sim.events_per_s is the throughput of the binary heap the wheel replaced,
// measured at the queue swap, so the gate catches any collapse back to it;
// regenerating the baseline tightens the floor to current wheel throughput.
// (That heap now lives on only as the differential oracle in
// internal/sim/wheel_test.go.)
func BenchmarkEngine(b *testing.B) {
	// 8192 concurrent self-reposting chains keep the queue at
	// saturation-like depth, so the queue is measured where it
	// matters: hundreds of pending events, not a near-empty queue.
	const runEvents = 1 << 17
	const chains = 8192
	drive := func(e *sim.Engine) {
		rng := sim.NewRNG(7)
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired >= runEvents {
				return
			}
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				e.PostAfter(sim.Time(rng.Intn(200)), tick) // short timers
			case 4:
				e.Post(e.Now(), tick) // same-timestamp batch member
			case 5, 6:
				e.PostAfter(sim.Time(rng.Intn(1<<15)), tick) // cascade levels
			case 7:
				e.PostAfter(sim.Time(1<<21)+sim.Time(rng.Intn(1<<10)), tick)
			}
		}
		for c := 0; c < chains; c++ {
			e.Post(e.Now()+sim.Time(rng.Intn(1<<12)), tick)
		}
		e.Run()
	}
	b.Run("saturation", func(b *testing.B) {
		e := sim.NewEngine()
		drive(e) // warm the event free list and wheel
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			drive(e)
		}
		wall := time.Since(start).Seconds()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		events := float64(b.N) * runEvents
		evps := events / wall
		allocsPerEvent := float64(m1.Mallocs-m0.Mallocs) / events
		b.ReportMetric(evps, "events/s")
		b.ReportMetric(allocsPerEvent, "allocs/event")
		if reg := telemetry.Hub().Reg(); reg != nil {
			reg.Set("sim.events_per_s", evps)
			reg.Set("sim.allocs_per_event", allocsPerEvent)
		}
	})
}

// BenchmarkDaemonJob pins the job daemon's per-job service overhead: the
// full durable lifecycle — journaled submit, admission, a fresh run
// directory with its own journal, execution of a trivial experiment,
// atomic result commit, journaled completion — divided by jobs. The
// experiment body is a no-op on purpose, so the number isolates what the
// service plane itself costs (fsync-bounded: two job-journal records plus
// the run journal per job). Informational only — it lands as
// perf.bench.job_overhead_s for trend-watching, never as a gate, because
// fsync latency is the machine's, not the code's.
func BenchmarkDaemonJob(b *testing.B) {
	d, err := service.New(service.Config{
		Dir: b.TempDir(),
		Experiments: []service.Experiment{{
			Name: "noop", Desc: "benchmark no-op",
			Run: func(w io.Writer) error {
				_, err := io.WriteString(w, "NOOP ok\n")
				return err
			},
		}},
		Stderr: io.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Start()
	defer d.Close()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		id, err := d.Submit(service.Spec{Exps: []string{"noop"}})
		if err != nil {
			b.Fatal(err)
		}
		v, err := d.Wait(id)
		if err != nil || v.State != service.StateDone {
			b.Fatalf("job %s ended %v: %v", id, v.State, err)
		}
	}
	perJob := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(perJob, "s/job")
	if reg := telemetry.Hub().Reg(); reg != nil {
		reg.Set("perf.bench.job_overhead_s", perJob)
	}
}

// BenchmarkPerfOverhead pins the cost of the wall-clock perf plane on a
// parameter-server round large enough to fill the meter's windows: 12
// workers × 4096 chunks is 49 152 packets and three events each (send,
// arrival, delivery). E16, the earlier workload, fires four events for each
// of its 192 packets now that a busy switch queues its arrivals, which is
// less than two windows. "off" is the default: netsim asks for the active
// plane once per network build, no dispatch hook is installed, and the
// per-event cost is zero; "on" enables the plane, so every engine carries
// a dispatch meter that counts events and samples the clock once per
// 1024-event window (<2% overhead is the design target). The wall-clock
// facts land as perf.* series for benchcheck's directional gates —
// events/s may only fall so far, allocs/event may only rise so far, the
// on/off ratio is informational — while the meter's flushed event count is
// deterministic (window-granular, independent of machine and pool width)
// and is pinned exactly as exp.perfoverhead.meter_events.
func BenchmarkPerfOverhead(b *testing.B) {
	ps := apps.PSConfig{Workers: 12, ModelSize: 16384, Width: 4}
	round := func() { adcpParamServerRound(b, ps, 16384) }
	var offS, onS float64
	b.Run("off", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			round()
		}
		offS = time.Since(start).Seconds() / float64(b.N)
	})
	var totals perf.Totals
	b.Run("on", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			p := perf.Enable()
			round()
			totals = p.Totals()
			perf.Disable()
		}
		onS = time.Since(start).Seconds() / float64(b.N)
		if offS > 0 {
			b.ReportMetric(onS/offS, "on/off-wall")
		}
		b.ReportMetric(totals.EventsPerSec, "events/s")
		b.ReportMetric(totals.AllocsPerEvent, "allocs/event")
	})
	if reg := telemetry.Hub().Reg(); reg != nil {
		reg.Set("exp.perfoverhead.meter_events", float64(totals.Events))
		reg.Set("perf.bench.events_per_s", totals.EventsPerSec)
		reg.Set("perf.bench.allocs_per_event", totals.AllocsPerEvent)
		reg.Set("perf.bench.bytes_per_event", totals.BytesPerEvent)
		if offS > 0 {
			reg.Set("perf.bench.overhead_ratio", onS/offS)
		}
	}
}
