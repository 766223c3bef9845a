package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// buildAdcpsim builds the CLI sweep-build drives, from the module this
// one sits in.
func buildAdcpsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adcpsim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/adcpsim")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/adcpsim: %v\n%s", err, out)
	}
	return bin
}

// TestQuickEveryWorkload runs every workload at quick size, untraced and
// traced, through the same entry point as the command line, and checks
// the contract of the last line (exactly four keys, every declared metric
// and no other, nothing failed), that the traced run simulated what the
// untraced run simulated, and that it left its spans behind.
func TestQuickEveryWorkload(t *testing.T) {
	adcpsim := buildAdcpsim(t)
	out := t.TempDir()
	names := func(defs []metricDef) []string {
		var n []string
		for _, d := range defs {
			n = append(n, d.Name)
		}
		sort.Strings(n)
		return n
	}
	for _, w := range workloads {
		var untraced detail
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "2", "--seconds", "1", "--trace", trace, "-quick", "-adcpsim", adcpsim, "-out", out}
			if code := run(args, "", &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var det detail
			if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "detail ")), &det); err != nil || det.Digest == "" {
				t.Fatalf("%s trace %s: detail line %q: %v", w.name, trace, lines[len(lines)-2], err)
			}
			if trace == "0" {
				untraced = det
			} else {
				if det.Digest != untraced.Digest {
					t.Errorf("%s: traced digest %s, untraced %s", w.name, det.Digest, untraced.Digest)
				}
				if spans, err := readTrace(det.Trace); err != nil || len(spans) == 0 {
					t.Errorf("%s: trace %s: %d spans, %v", w.name, det.Trace, len(spans), err)
				}
			}
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %s: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			var keys []string
			for k := range raw {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("%s trace %s: result keys %v, want %v", w.name, trace, keys, want)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer()
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
				}
			}
			sort.Strings(got)
			if want := names(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace %s: metrics\n got %v\nwant %v", w.name, trace, got, want)
			}
		}
	}
	if leftovers, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(leftovers) > 0 {
		t.Errorf("scratch directories left behind: %v", leftovers)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var gated []workloadSpec
	for _, w := range workloads {
		if w.outside == "" {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n here %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from spanMetrics + probeDefs")
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) > 16 || len(d.Name) > 64 {
			t.Errorf("metric %s %s: name or unit too long", d.Name, d.Unit)
		}
	}
}
