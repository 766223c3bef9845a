// Command adcpsim runs the paper-reproduction experiments and prints their
// tables. Run with -list to see the experiment ids (they correspond to the
// tables and figures of the paper; see DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	adcpsim -exp all
//	adcpsim -exp keyrate
//	adcpsim -exp table1,convergence -metrics out.json -trace out.trace.json
//
// With -metrics, every experiment's headline numbers are exported as one
// deterministic JSON document (byte-identical across runs). With -trace,
// the instrumented simulation paths emit sim-time events in Chrome
// trace-event format, viewable at ui.perfetto.dev. With -perf-json, the
// wall-clock performance plane (events/s, allocations, pool utilization)
// is written as a separate adcp-perf/1 document — machine-dependent by
// nature and deliberately segregated from the deterministic exports.
// See docs/OBSERVABILITY.md.
//
// With -run-dir, the run records a crash-safe journal of every completed
// experiment and sweep point; -resume replays it after a crash or kill and
// produces output byte-identical to an uninterrupted run. -point-retries
// enables the supervised retry plane (bounded retries with seeded backoff,
// then quarantine). See docs/RESILIENCE.md.
//
// Exit codes: 0 success, 1 experiment failure (quarantined points
// included), 2 usage error, 3 killed by signal, 4 watchdog kill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/runstate"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

type experiment struct {
	name string
	desc string
	run  func(w io.Writer) error
}

// table adapts an experiment entry point to an experiment body: produce
// the table, print it.
func table(produce func() (*stats.Table, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		t, err := produce()
		if err != nil {
			return err
		}
		fmt.Fprint(w, t)
		return nil
	}
}

func defaultExperiments() []experiment {
	return []experiment{
		{"table1", "Table 1: coflow applications end-to-end, RMT vs ADCP",
			table(func() (*stats.Table, error) { t, _, err := experiments.Table1(); return t, err })},
		{"table2", "Table 2: port multiplexing poor scalability",
			table(func() (*stats.Table, error) { t, _ := experiments.Table2(); return t, nil })},
		{"table3", "Table 3: port demultiplexing examples",
			table(func() (*stats.Table, error) { t, _ := experiments.Table3(); return t, nil })},
		{"convergence", "Figures 1+2: coflow convergence cost",
			table(func() (*stats.Table, error) {
				t, _, err := experiments.Convergence(experiments.DefaultConvergenceConfig(), nil)
				return t, err
			})},
		{"replication", "Figure 3: table replication under scalar processing",
			table(func() (*stats.Table, error) { t, _, err := experiments.Replication(nil); return t, err })},
		{"walk", "Figure 4: ADCP architecture walkthrough",
			table(func() (*stats.Table, error) { t, _, err := experiments.Walk(); return t, err })},
		{"globalarea", "Figure 5: global partitioned area properties",
			table(func() (*stats.Table, error) { t, _, err := experiments.GlobalArea(); return t, err })},
		{"keyrate", "Figure 6 / §3.2: key rate vs array width",
			table(func() (*stats.Table, error) { t, _, err := experiments.KeyRate(nil); return t, err })},
		{"feasibility", "§4: multi-clock memory + g-cell congestion", runFeasibility},
		{"tension", "§1: line rate vs run-to-completion",
			table(func() (*stats.Table, error) { t, _, err := experiments.Tension(nil); return t, err })},
		{"landscape", "§1/§2: the four architecture models compared",
			table(func() (*stats.Table, error) { t, _, err := experiments.Landscape(); return t, err })},
		{"coflowsched", "§5 extension: coflow-aware scheduling",
			table(func() (*stats.Table, error) {
				t, _, err := experiments.CoflowSched(experiments.DefaultCoflowSchedConfig())
				return t, err
			})},
		{"demux", "§3.3 ablation: demux factor sweep",
			table(func() (*stats.Table, error) { t, _, err := experiments.DemuxSweep(nil); return t, err })},
		{"buffer", "TM buffer sizing under incast",
			table(func() (*stats.Table, error) { t, _, err := experiments.BufferSweep(nil); return t, err })},
		{"cachehit", "cache hit rate vs size under Zipf GETs",
			table(func() (*stats.Table, error) { t, _, err := experiments.CacheHit(nil, nil); return t, err })},
		{"saturation", "recirculation tax as completion time under load",
			table(func() (*stats.Table, error) { t, _, err := experiments.Saturation(); return t, err })},
		{"faults", "fault/recovery loss sweep: CCT inflation RMT vs ADCP",
			table(func() (*stats.Table, error) { t, _, err := experiments.Faults(nil); return t, err })},
		{"failover", "switch crash + warm-standby failover: recovery time, CCT, replication overhead",
			table(func() (*stats.Table, error) { t, _, err := experiments.Failover(nil, nil); return t, err })},
	}
}

// serviceExperiments hands the experiment table to internal/service, which
// owns the run loop (batch and daemon) and cannot import this package.
func serviceExperiments(exps []experiment) []service.Experiment {
	out := make([]service.Experiment, len(exps))
	for i, e := range exps {
		out[i] = service.Experiment{Name: e.name, Desc: e.desc, Run: e.run}
	}
	return out
}

// modeFlags names the flags that belong to one mode: true for a flag only
// -daemon reads, false for a batch flag -daemon refuses.
var modeFlags = map[string]bool{
	"daemon-dir": true, "queue-cap": true, "job-retries": true, "job-timeout": true, "drain-timeout": true,
	"exp": false, "run-dir": false, "serve": false, "exp-timeout": false,
}

func main() {
	os.Exit(run(defaultExperiments(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized for tests: it returns the process
// exit code instead of calling os.Exit.
func run(exps []experiment, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adcpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "", "comma-separated experiment ids, or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	metricsPath := fs.String("metrics", "", "write the metrics registry as JSON to this file ('-' = stdout)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file (Perfetto-viewable) to this file ('-' = stdout)")
	traceJSONLPath := fs.String("trace-jsonl", "", "write the trace as JSON lines (exact picosecond timestamps) to this file ('-' = stdout)")
	spansPath := fs.String("spans", "", "write only the causal-span events (packet lineage + CCT segments) to this file ('-' = stdout); '.jsonl' suffix selects JSON lines, anything else Chrome trace format (implies tracing, so forces -parallel 1)")
	traceDetail := fs.Bool("trace-detail", false, "trace per-stage pipeline events too (large traces)")
	progress := fs.Bool("progress", false, "print each experiment id to stderr as it starts")
	serveAddr := fs.String("serve", "", "serve /metrics, /healthz, /progress and pprof on this address while experiments run (e.g. 127.0.0.1:8080)")
	reportPath := fs.String("report", "", "write a self-contained HTML run report to this file")
	samplesCSV := fs.String("samples-csv", "", "write sampled time series as CSV to this file ('-' = stdout)")
	samplesJSON := fs.String("samples-json", "", "write sampled time series as JSON to this file ('-' = stdout)")
	sampleIntervalUS := fs.Int("sample-interval-us", int(telemetry.DefaultSampleInterval/sim.Microsecond), "sampling period in simulated microseconds")
	sampleCap := fs.Int("sample-cap", telemetry.DefaultSampleCapacity, "ring-buffer capacity per sampled series")
	expTimeout := fs.Duration("exp-timeout", 0, "wall-clock watchdog deadline for the whole selected run (0 = none)")
	expBudget := fs.Uint64("exp-event-budget", 0, "sim-event budget per experiment (0 = unbounded)")
	parallelN := fs.Int("parallel", runtime.NumCPU(), "worker-pool width for sweep points (1 = sequential; output bytes are identical at any width)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	perfJSON := fs.String("perf-json", "", "write the wall-clock perf plane (events/s, allocations, pool utilization) as JSON to this file ('-' = stdout)")
	daemonAddr := fs.String("daemon", "", "run as a long-lived experiment job daemon on this address (e.g. 127.0.0.1:8080): durable HTTP job queue with crash recovery (see docs/SERVICE.md)")
	daemonDir := fs.String("daemon-dir", "", "service directory for -daemon: job journal plus per-job run directories and outputs (required with -daemon)")
	queueCap := fs.Int("queue-cap", 16, "with -daemon: max live jobs (queued + running); submissions beyond it are shed with HTTP 429")
	jobRetries := fs.Int("job-retries", 2, "with -daemon: max execution attempts per job before it is failed or quarantined")
	jobTimeout := fs.Duration("job-timeout", 0, "with -daemon: default per-attempt wall-clock watchdog for jobs (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "with -daemon: how long a SIGTERM drain waits for the running job before checkpointing it")
	runDir := fs.String("run-dir", "", "durable run directory: record a crash-safe journal of every completed experiment and sweep point (see docs/RESILIENCE.md)")
	resume := fs.Bool("resume", false, "resume the journal in -run-dir: completed units replay from it instead of re-running; output is byte-identical to an uninterrupted run")
	pointRetries := fs.Int("point-retries", 1, "max attempts per sweep point; >1 enables supervised retries with seeded exponential backoff, and a point that exhausts them is quarantined (excluded from the merge, reported, run exits 1)")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "base delay before a sweep-point retry (doubles per attempt, seeded ±50% jitter)")
	version := fs.Bool("version", false, "print the build identity (module version, VCS revision) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *resume && *runDir == "" {
		fmt.Fprintln(stderr, "-resume requires -run-dir")
		return 2
	}
	daemon := *daemonAddr != ""
	if daemon && *daemonDir == "" {
		fmt.Fprintln(stderr, "-daemon requires -daemon-dir")
		return 2
	}
	// A flag set outside its mode is a usage error, never silently ignored.
	// Daemon mode owns the whole process: the batch flags that select,
	// bound or journal a single run make no sense alongside it.
	var misplaced []string
	fs.Visit(func(f *flag.Flag) {
		if daemonOnly, ok := modeFlags[f.Name]; ok && daemonOnly != daemon {
			misplaced = append(misplaced, "-"+f.Name)
		}
	})
	if names := strings.Join(misplaced, "/"); names != "" {
		if daemon {
			fmt.Fprintf(stderr, "-daemon is incompatible with %s (jobs are submitted over HTTP; see docs/SERVICE.md)\n", names)
		} else {
			fmt.Fprintf(stderr, "%s requires -daemon\n", names)
		}
		return 2
	}
	if daemon {
		return runDaemon(*daemonAddr, *drainTimeout, service.Config{
			Dir: *daemonDir, Experiments: serviceExperiments(exps), Stderr: stderr,
			QueueCap: *queueCap, MaxAttempts: *jobRetries, JobTimeout: *jobTimeout,
			EventBudget: *expBudget, Parallel: *parallelN, RetryBackoff: *retryBackoff,
		})
	}
	tracing := *tracePath != "" || *traceJSONLPath != "" || *spansPath != ""
	if *runDir != "" && tracing {
		fmt.Fprintln(stderr, "-run-dir is incompatible with -trace/-trace-jsonl/-spans (traces are not journalable)")
		return 2
	}

	if *version {
		fmt.Fprintln(stdout, perf.Build().String())
		return 0
	}

	if *list || *expFlag == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-12s %s\n", e.name, e.desc)
		}
		if *expFlag == "" && !*list {
			fmt.Fprintln(stdout, "\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return 0
	}

	selected, err := service.Select(serviceExperiments(exps), strings.Split(*expFlag, ","))
	if err != nil {
		fmt.Fprintf(stderr, "%v (use -list)\n", err)
		return 2
	}

	// The flags describe one run. Its hub exists before any experiment
	// builds a network, so netsim.New can attach switches to it: a registry
	// whenever any consumer of metric values is requested, a sampler
	// whenever any consumer of time series is.
	needSampler := *reportPath != "" || *serveAddr != "" || *samplesCSV != "" || *samplesJSON != ""
	cfg := service.RunConfig{
		Selection: selected, EventBudget: *expBudget,
		Registry: *metricsPath != "" || needSampler, Sampler: needSampler, Detail: *traceDetail,
		SampleIntervalUS: *sampleIntervalUS, SampleCap: *sampleCap,
		Tracer: tracing, Parallel: *parallelN,
	}
	if *pointRetries > 1 {
		cfg.Retry = parallel.RetryPolicy{MaxAttempts: *pointRetries, BaseBackoff: *retryBackoff, Quarantine: true}
	}
	if *progress {
		cfg.PointProgress = func(sweep string, done, total int) {
			fmt.Fprintf(stderr, "  %s: %d/%d points\n", sweep, done, total)
		}
	}
	tel := cfg.Telemetry()

	// The wall-clock perf plane is the hub's machine-dependent counterpart:
	// it meters how fast the simulator itself runs (events/s, allocations,
	// pool utilization) in a registry of its own, so the deterministic
	// exports above stay byte-identical whether it is on or off.
	var perfPlane *perf.Plane
	if *perfJSON != "" || *serveAddr != "" {
		perfPlane = perf.Enable()
		defer perf.Disable()
	}

	prof := &profiler{memPath: *memProfile, stderr: stderr}
	if *cpuProfile != "" {
		if err := prof.startCPU(*cpuProfile); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer prof.stopCPU()
	}

	// Every way out of the process — normal return, SIGINT/SIGTERM, fatal
	// export error — funnels through one idempotent ordered teardown:
	// flush profiles, dump the flight recorder (abnormal exits only),
	// commit the run journal, drain the server. A bare kill used to leave
	// -cpuprofile truncated and -memprofile never written.
	sd := &shutdownPlan{prof: prof, tel: tel, stderr: stderr}
	defer sd.run("")
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigc); close(sigc) }()
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "adcpsim: caught %v, shutting down\n", sig)
		sd.run(fmt.Sprintf("signal %v", sig))
		os.Exit(3)
	}()

	// The run journal makes the run durable: every completed experiment
	// and sweep point commits its output and telemetry under -run-dir, and
	// -resume replays those units instead of re-running them. The journal
	// refuses to resume under a different output-affecting configuration.
	var journal *runstate.Journal
	if *runDir != "" {
		j, err := runstate.Open(*runDir, runstate.OpenOptions{Config: cfg.Digest(), Argv: args, Resume: *resume})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		journal = j
		sd.journal = j
	}

	var view *service.RunView // nil without -serve
	if *serveAddr != "" {
		srv, err := startServer(*serveAddr, tel, selected, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		view, sd.srv = srv.view, srv
	}

	// Every post-run artifact, in write order. When any export streams to
	// stdout ('-'), the experiment tables move to stderr so the piped
	// stream carries only the export document.
	trace := func(write func(io.Writer, string) error, cat string) func(io.Writer) error {
		return func(w io.Writer) error { return write(w, cat) }
	}
	spans := trace(tel.Rec().WriteChromeTrace, "span")
	if strings.HasSuffix(*spansPath, ".jsonl") {
		spans = trace(tel.Rec().WriteJSONL, "span")
	}
	outs := []export{
		{*metricsPath, "metrics", tel.Metrics.WriteJSON},
		{*tracePath, "trace", trace(tel.Rec().WriteChromeTrace, "")},
		{*traceJSONLPath, "trace-jsonl", trace(tel.Rec().WriteJSONL, "")},
		{*spansPath, "spans", spans},
		{*samplesCSV, "samples-csv", tel.Sampler.WriteCSV},
		{*samplesJSON, "samples-json", tel.Sampler.WriteJSON},
		{*perfJSON, "perf-json", perfPlane.WriteJSON},
		{*reportPath, "report", reportWriter(tel, perfPlane, "adcpsim -exp "+*expFlag)},
	}
	tableOut := stdout
	for _, o := range outs {
		if o.path == "-" {
			tableOut = stderr
		}
	}

	// The watchdog deadline bounds the WHOLE selected run: one context is
	// built up front and shared by every experiment, so -exp-timeout is the
	// wall-clock budget for `adcpsim -exp ...` in total, not per table.
	// Once it expires, the running experiment is killed and the remaining
	// ones are skipped (reported as failed without running).
	runCtx := context.Background()
	if *expTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *expTimeout)
		defer cancel()
	}

	// Run every selected experiment even when an earlier one fails: a broken
	// table must not hide whether the rest still reproduce. Failures are
	// reported per experiment id and make the whole run exit non-zero. The
	// loop itself — restore, run, persist, merge — is the daemon's
	// (service.RunExperiments); what follows is what the CLI does on each
	// state change.
	restored := 0
	watchdogKilled := false
	var failed []string
	onState := func(name string, st service.ExpState, err error) {
		view.Update(name, st, err, tel.Reg())
		switch st {
		case service.ExpRunning:
			if *progress {
				fmt.Fprintf(stderr, "running %s...\n", name)
			}
			return
		case service.ExpSkipped:
			fmt.Fprintf(stderr, "experiment %s skipped: -exp-timeout expired for the run\n", name)
		case service.ExpRestored:
			if *progress {
				fmt.Fprintf(stderr, "restored %s from the run journal\n", name)
			}
			restored++
		case service.ExpFailed:
			var we *experiments.WatchdogError
			if errors.As(err, &we) {
				// A tripped watchdog abandoned the experiment goroutine
				// mid-write; flag the output as truncated so a partial table
				// is not mistaken for a complete one. Flush the profiles
				// first — a watchdog kill is usually followed by the harness
				// tearing the process down, and a CPU profile of the hang is
				// exactly the artifact worth keeping — then dump the
				// flight-recorder ring so the last simulation events before
				// the kill are on record.
				watchdogKilled = true
				fmt.Fprintf(tableOut, "\n[experiment %s killed by watchdog: output above may be truncated]\n", name)
				prof.stopCPU()
				prof.writeMem()
				tel.Rec().Dump(stderr, we.Error())
			}
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", name, err)
		}
		if err != nil {
			failed = append(failed, name)
		}
	}
	service.RunExperiments(runCtx, cfg, tel, journal, tableOut, stderr, onState)
	if journal != nil && journal.Resumed() {
		fmt.Fprintf(stderr, "resumed: %d of %d experiments restored whole from the run journal\n", restored, len(selected))
	}

	if code := prof.writeMem(); code != 0 {
		return code
	}
	if perfPlane != nil {
		fmt.Fprintln(stderr, perfPlane.Summary())
	}
	if code := writeOutputs(outs, stdout, stderr); code != 0 {
		return code
	}
	sd.run("")
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "failed experiments: %s\n", strings.Join(failed, ", "))
		if watchdogKilled {
			return 4
		}
		return 1
	}
	return 0
}

// profiler owns the -cpuprofile/-memprofile lifecycle. Stop and write are
// idempotent and safe from any goroutine, because they must run from
// whichever path ends the run first: the normal deferred teardown, the
// watchdog-kill path, or the signal handler — a plain deferred
// StopCPUProfile never runs on SIGINT/SIGTERM, which used to leave killed
// runs with truncated CPU profiles and no heap profile at all.
type profiler struct {
	mu      sync.Mutex
	cpu     *os.File
	memPath string
	memDone bool
	stderr  io.Writer
}

func (p *profiler) startCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.mu.Lock()
	p.cpu = f
	p.mu.Unlock()
	return nil
}

// stopCPU flushes and closes the CPU profile, once; later calls are no-ops.
func (p *profiler) stopCPU() {
	p.mu.Lock()
	f := p.cpu
	p.cpu = nil
	p.mu.Unlock()
	if f == nil {
		return
	}
	pprof.StopCPUProfile()
	f.Close()
}

// writeMem snapshots the heap (after a GC, so the profile reflects live
// objects rather than garbage) into -memprofile, once; later calls are
// no-ops. The write is atomic so a kill racing the snapshot never leaves
// a truncated profile. Returns a process exit code.
func (p *profiler) writeMem() int {
	p.mu.Lock()
	path := p.memPath
	done := p.memDone
	p.memDone = true
	p.mu.Unlock()
	if path == "" || done {
		return 0
	}
	err := runstate.AtomicWrite(path, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
	if err != nil {
		fmt.Fprintf(p.stderr, "memprofile: %v\n", err)
		return 1
	}
	return 0
}

// export is one post-run artifact the CLI can write: its path ("" = not
// requested, "-" = stdout), its name in errors, and its writer.
type export struct {
	path, what string
	write      func(io.Writer) error
}

// writeOutputs writes the requested exports in order. A path of "-"
// writes to stdout instead, so exports can be piped straight into jq or a
// plotting script without touching disk. File writes are atomic (temp
// file + rename): a crash or kill mid-export leaves either the previous
// complete document or none, never a truncated one.
func writeOutputs(outs []export, stdout, stderr io.Writer) int {
	for _, o := range outs {
		var err error
		switch o.path {
		case "":
			continue
		case "-":
			err = o.write(stdout)
		default:
			err = runstate.AtomicWrite(o.path, o.write)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", o.what, err)
			return 1
		}
	}
	return 0
}

// reportWriter renders the self-contained HTML run report of tel (and of
// the perf plane, when one is on).
func reportWriter(tel *telemetry.Telemetry, plane *perf.Plane, title string) func(io.Writer) error {
	return func(w io.Writer) error {
		rep := report.Report{
			Title:      title,
			Snapshot:   tel.Metrics.Snapshot(),
			Series:     tel.Sampler.Series(),
			IntervalPs: int64(tel.Sampler.Interval()),
		}
		if plane != nil {
			doc := plane.Document()
			rep.Perf = &doc
		}
		return report.Write(w, rep)
	}
}

func runFeasibility(w io.Writer) error {
	t, _, err := experiments.MultiClock(nil)
	if err != nil {
		return err
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w)
	ct, _, _ := experiments.Congestion()
	fmt.Fprint(w, ct)
	fmt.Fprintln(w)
	pt, _, err := experiments.Power()
	if err != nil {
		return err
	}
	fmt.Fprint(w, pt)
	fmt.Fprintln(w)
	pc, _, err := experiments.ParseCost()
	if err != nil {
		return err
	}
	fmt.Fprint(w, pc)
	return nil
}
