package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in a freshly spawned copy of this program, so
// its garbage collector state and peak resident set are its own, and
// parses the two lines runOne printed.
func child(o options, name string, trace bool, stderr io.Writer) (result, detail, error) {
	if o.exe == "" {
		return result{}, detail{}, fmt.Errorf("no executable to spawn %s from", name)
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-adcpsim", o.adcpsim, "-out", o.out,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(o.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	var res result
	var det detail
	parsed := 0
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			if json.Unmarshal([]byte(rest), &det) == nil {
				parsed++
			}
		} else if json.Unmarshal([]byte(line), &res) == nil && res.Metrics != nil {
			parsed++
		}
	}
	// Exit code 1 with both lines printed is a run whose verification
	// failed: the caller reports it. Anything else is the harness failing.
	if parsed != 2 {
		return result{}, detail{}, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return res, det, nil
}

// report is out/results.json: everything the suite printed.
type report struct {
	Schema    string                     `json:"schema"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Op        string             `json:"op"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Units     int                `json:"units"`
	WallS     float64            `json:"host.wall_s"`
	CalibS    float64            `json:"host.calib_s"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func values(res result) map[string]float64 {
	out := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, v map[string]float64) {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  %s is better, bound %.2f", d.Better, d.Bound)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s%s\n", d.Name, v[d.Name], d.Unit, bound)
	}
}

// runSuite runs every workload untraced, then every workload traced with
// the layer probes, one child process at a time.
func runSuite(o options, stdout, stderr io.Writer) error {
	rep := report{Schema: "adcp-bench/1", Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadReport{}}
	bad := 0
	fmt.Fprintf(stdout, "end to end (tracing off), seed %d, %.3g s of timed units per workload\n", o.seed, o.seconds)
	for _, w := range workloads {
		res, det, err := child(o, w.name, false, stderr)
		if err != nil {
			return err
		}
		wr := &workloadReport{
			Op: det.Op, Digest: det.Digest, Attempted: res.Attempted, Failed: res.Failed,
			Units: det.Units, WallS: det.WallS, CalibS: det.CalibS, EndToEnd: values(res),
		}
		rep.Workloads[w.name] = wr
		fmt.Fprintf(stdout, "\n%s (op = %s)\n", w.name, w.op)
		if w.outside != "" {
			fmt.Fprintf(stdout, "  not in BENCHMARK.json: %s\n", w.outside)
		}
		printMetrics(stdout, endToEnd, wr.EndToEnd)
		fmt.Fprintf(stdout, "  %-30s %14.6g        (%d failed of %d)\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
		fmt.Fprintf(stdout, "  units %d  host.wall_s %.4f  host.calib_s %.5f  digest %s\n", det.Units, det.WallS, det.CalibS, det.Digest)
		if !res.Correct {
			bad++
		}
	}

	fmt.Fprintf(stdout, "\nper layer (traced run): spans of each workload\n")
	probes := map[string][]float64{}
	var spans []span
	for _, w := range workloads {
		res, det, err := child(o, w.name, true, stderr)
		if err != nil {
			return err
		}
		wr := rep.Workloads[w.name]
		wr.PerLayer = values(res)
		match := "matches the untraced run"
		if det.Digest != wr.Digest {
			match = "DIFFERS from the untraced run's " + wr.Digest
			bad++
		}
		if !res.Correct {
			bad++
		}
		fmt.Fprintf(stdout, "\n%s: digest %s %s\n", w.name, det.Digest, match)
		printMetrics(stdout, spanMetrics, wr.PerLayer)
		for _, d := range probeDefs {
			probes[d.Name] = append(probes[d.Name], wr.PerLayer[d.Name])
		}
		more, err := readTrace(det.Trace)
		if err != nil {
			return err
		}
		// Parents index into the file they came from.
		for i := range more {
			if more[i].Parent >= 0 {
				more[i].Parent += len(spans)
			}
		}
		spans = append(spans, more...)
	}
	fmt.Fprintf(stdout, "\nper layer (traced run): isolated probes, median [min, max] over the %d traced runs\n", len(workloads))
	for _, d := range probeDefs {
		v := probes[d.Name]
		sort.Float64s(v)
		fmt.Fprintf(stdout, "  %-30s %14.6g %-6s [%.6g, %.6g]\n", d.Name, median(v), d.Unit, v[0], v[len(v)-1])
	}

	tracePath := filepath.Join(o.out, "trace.json")
	if err := writeTrace(tracePath, spans); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	resultsPath := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(resultsPath, append(data, '\n'), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d spans in %s, results in %s\n", len(spans), tracePath, resultsPath)
	if bad > 0 {
		return fmt.Errorf("%d runs failed verification or changed their digest under tracing", bad)
	}
	return nil
}

func readTrace(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Spans, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the "exclusive" method), because that is how the benchmark's spread is
// judged. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// rawOps is ops_per_s on the uncalibrated clock: printed by -repeat for
// comparison, never gated.
const rawOps = "ops_per_s (raw clock)"

// runRepeat runs o.repeat untraced sets and prints, per workload and
// end-to-end metric, the median, the quartiles and the largest difference
// between two sets as a share of the median. It fails when a difference
// exceeds the metric's bound: two runs of the same code then cannot be
// told from a regression.
func runRepeat(o options, stdout, stderr io.Writer) error {
	sets := map[string]map[string][]float64{}
	for _, w := range workloads {
		sets[w.name] = map[string][]float64{}
	}
	for s := 0; s < o.repeat; s++ {
		for _, w := range workloads {
			res, det, err := child(o, w.name, false, stderr)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[w.name][name] = append(sets[w.name][name], m.Value)
			}
			// The same estimate before calibration, to show what it buys.
			sets[w.name][rawOps] = append(sets[w.name][rawOps], res.Metrics["ops_per_s"].Value*CalibRefS/det.CalibS)
		}
		fmt.Fprintf(stderr, "set %d of %d done\n", s+1, o.repeat)
	}
	over := 0
	fmt.Fprintf(stdout, "%d sets, seed %d. spread = (max - min) / median, iqr = (q3 - q1) / median\n", o.repeat, o.seed)
	for _, w := range workloads {
		fmt.Fprintf(stdout, "\n%s\n", w.name)
		for _, d := range append(append([]metricDef(nil), endToEnd...), metricDef{Name: rawOps, Unit: "1/s"}) {
			v := sets[w.name][d.Name]
			q1, q2, q3 := quartiles(v)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			spread := (sorted[len(sorted)-1] - sorted[0]) / q2
			flag := ""
			if d.Bound > 0 {
				flag = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
				if spread > d.Bound && !o.quick && w.outside == "" {
					flag += "  OVER BOUND"
					over++
				}
			}
			fmt.Fprintf(stdout, "  %-20s median %12.6g %-5s q1 %12.6g q3 %12.6g  iqr %6.2f%%  spread %6.2f%%%s\n",
				d.Name, q2, d.Unit, q1, q3, 100*(q3-q1)/q2, 100*spread, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between sets of the same code by more than their bound", over)
	}
	return nil
}
