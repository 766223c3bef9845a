// Command bench is the repository's benchmark: seven sustained workloads
// over the simulator, the CLI and the job daemon, measured end to end with
// tracing off and layer by layer in a traced run. README.md explains what
// each number means; BENCHMARK.json is the machine-readable contract.
//
//	bash bench/run.sh                         every workload, untraced then traced
//	bash bench/run.sh -repeat 5               five untraced sets and their spread
//	bash bench/run.sh -workload kv-get -seed 3 -seconds 8 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload in this
// process, one JSON result on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	exe      string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	repeat   int
	adcpsim  string
	out      string
}

func main() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], exe, os.Stdout, os.Stderr))
}

// run is main with its environment passed in. exe is this program's path,
// which the suite's children and the reference kernel are spawned from;
// tests pass none, run single workloads only and keep the kernel in-process.
func run(args []string, exe string, stdout, stderr io.Writer) int {
	o := options{exe: exe}
	var trace, calibRuns int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and print its result line")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "time budget of a run's timed units (a unit in flight finishes)")
	fs.IntVar(&trace, "trace", 0, "1: traced units and layer probes, printing the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "every workload at ~1% size, two units, no gating (tests)")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many untraced sets and gate their spread on the bounds")
	fs.StringVar(&o.adcpsim, "adcpsim", "", "path of the built cmd/adcpsim (sweep-build)")
	fs.IntVar(&calibRuns, "calib", 0, "time the reference kernel this many times, print the seconds and exit")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for traces, results and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.repeat < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}
	if calibRuns > 0 {
		for i := 0; i < calibRuns; i++ {
			fmt.Fprintln(stdout, timeCalib())
		}
		return 0
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o777); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var err error
	switch {
	case o.workload != "":
		var ok bool
		if ok, err = runOne(o, stdout); err == nil && !ok {
			return 1
		}
	case o.repeat > 1:
		err = runRepeat(o, stdout, stderr)
	default:
		err = runSuite(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail precedes the result line ("detail {...}"): what the suite prints
// beside the metrics, and what the contract's four keys have no room for.
type detail struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	// Digest hashes the simulated statistics of one unit. It must be equal
	// between the untraced and the traced run of a commit, and stays equal
	// across commits that only change host speed.
	Digest string  `json:"digest"`
	Units  int     `json:"units"`
	WallS  float64 `json:"host.wall_s"`  // raw wall seconds of the timed units
	CalibS float64 `json:"host.calib_s"` // mean seconds of the reference kernel
	Trace  string  `json:"trace,omitempty"`
}

// runOne runs one workload in this process. ok is false when an operation
// failed verification.
func runOne(o options, stdout io.Writer) (ok bool, err error) {
	w := findWorkload(o.workload)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-"+w.name+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, quick: o.quick, adcpsim: o.adcpsim, tmp: tmp, calib: calibHere}
	if o.exe != "" {
		e.calib = calibIn(o.exe)
	}
	if o.quick {
		e.calib = calibOff // no number of a quick run is looked at
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.quick {
		budget = 0
	}
	var res result
	var det detail
	if o.trace {
		res, det, err = runTraced(w, e, budget, o.out)
	} else {
		res, det, err = runUntraced(w, e, budget)
	}
	if err != nil {
		return false, err
	}
	detLine, err := json.Marshal(det)
	if err != nil {
		return false, err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "detail %s\n%s\n", detLine, resLine)
	return res.Correct, nil
}

// setUp builds the workload and readies its first unit, timing both.
func setUp(w *workloadSpec, e env) (runner, float64, error) {
	t := time.Now()
	r, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := r.prepare(); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return r, time.Since(t).Seconds(), nil
}

func runUntraced(w *workloadSpec, e env, budget time.Duration) (result, detail, error) {
	// Set-up is calibrated like the units, by kernel runs on either side.
	calibs, err := e.calib(2)
	if err != nil {
		return result{}, detail{}, err
	}
	var r runner
	var setups []float64
	for !enoughSetups(setups, e.quick) {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, detail{}, err
			}
			r = nil
			runtime.GC() // the discarded set-up must not weigh on the next
		}
		var s float64
		if r, s, err = setUp(w, e); err != nil {
			return result{}, detail{}, err
		}
		setups = append(setups, s)
	}
	defer r.close()
	more, err := e.calib(2)
	if err != nil {
		return result{}, detail{}, err
	}
	setup := calibrated(median(setups), append(calibs, more...))
	minUnits := max(w.minUnits, 1)
	if e.quick {
		minUnits = 2 // so that a unit is compared with the one before
	}
	m, err := measure(r, nil, e.calib, budget, minUnits, w.maxUnits)
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s: %w", w.name, err)
	}
	ok := float64(max(m.attempted-m.failed, 1)) // a run that failed whole still prints its line
	rss := m.rssMiB
	if rss == 0 {
		rss = selfPeakRSSMiB()
	}
	values := map[string]float64{
		"setup_s":            setup,
		"ops_per_s":          ok / float64(len(m.unit)) / m.typicalUnit(),
		"unit_p50_ms":        1000 * m.hostSeconds(median(m.unit)),
		"allocs_per_op":      float64(m.mallocs) / ok,
		"alloc_bytes_per_op": float64(m.bytes) / ok,
		"peak_rss_mb":        rss,
	}
	return m.result(endToEnd, values), m.detail(w), nil
}

// enoughSetups decides how often an untraced run sets its workload up.
// setup_s is the median: one sample of a sub-second time is mostly noise,
// so a cheap set-up is repeated until a second has gone into it.
func enoughSetups(setups []float64, quick bool) bool {
	const minSamples, maxSamples, minTotal = 3, 25, 1.0
	n := len(setups)
	return quick && n >= 1 || n >= maxSamples || n >= minSamples && sum(setups) >= minTotal
}

// result packs values for the given metric table into the result line.
func (m *measurement) result(defs []metricDef, values map[string]float64) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res
}

func (m *measurement) detail(w *workloadSpec) detail {
	return detail{
		Workload: w.name, Op: w.op, Digest: m.digest(), Units: len(m.unit),
		WallS: sum(m.unit), CalibS: mean(m.calibs),
	}
}

// runTraced is the per-layer run: half the budget untraced for reference,
// half with a span around every call into a layer, then the layer probes.
func runTraced(w *workloadSpec, e env, budget time.Duration, out string) (result, detail, error) {
	r, _, err := setUp(w, e)
	if err != nil {
		return result{}, detail{}, err
	}
	defer r.close()
	plain, err := measure(r, nil, e.calib, budget/2, 1, w.maxUnits)
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s: %w", w.name, err)
	}
	tr := newTracer(w.name)
	m, err := measure(r, tr, e.calib, budget/2, 1, w.maxUnits)
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s: traced: %w", w.name, err)
	}
	if m.sim != plain.sim {
		// Tracing changed what was simulated: the traced numbers describe
		// some other run.
		m.failed = m.attempted
	}
	values := spanValues(tr.spans, m)
	values["trace.overhead_ratio"] = m.typicalUnit() / plain.typicalUnit()
	if err := runProbes(e, values); err != nil {
		return result{}, detail{}, err
	}
	det := m.detail(w)
	det.Trace = filepath.Join(out, "trace-"+w.name+".json")
	if err := writeTrace(det.Trace, tr.spans); err != nil {
		return result{}, detail{}, err
	}
	m.attempted += plain.attempted
	m.failed += plain.failed
	return m.result(perLayer(), values), det, nil
}

// spanValues derives the workload's own per-layer metrics from its traced
// units: host seconds per unit under each span name, and the counts made
// at the same boundaries.
func spanValues(spans []span, m *measurement) map[string]float64 {
	units := float64(len(m.unit))
	totals := spanTotals(spans)
	perUnit := func(ns int64) float64 { return m.hostSeconds(float64(ns)/1e9) / units }
	values := map[string]float64{}
	for _, d := range spanMetrics {
		if name, ok := strings.CutSuffix(d.Name, "_s"); ok {
			values[d.Name] = perUnit(totals[name].dur)
		}
	}
	values["netsim.run_self_s"] = perUnit(totals["netsim.run"].self)
	values["switch.process_calls"] = float64(totals["switch.process"].calls) / units
	values["sim.events"] = float64(m.events) / units
	if m.events > 0 {
		values["sim.events_per_pkt"] = float64(m.events) / float64(max(m.attempted-m.failed, 1))
	}
	values["netsim.retx"] = float64(m.retx) / units
	return values
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), spanMetrics...), probeDefs...)
}
