package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/perf"
)

// TestPerfPlaneGoldenByteIdentical is the acceptance golden for the perf
// plane's segregation: the deterministic exports (stdout tables, -metrics
// JSON, samples CSV) of a sweep experiment must be byte-identical with the
// plane off, with the plane on, and with the plane on at -parallel 8 —
// the wall-clock meters must never leak into the sim-time plane.
func TestPerfPlaneGoldenByteIdentical(t *testing.T) {
	runOne := func(name string, extra ...string) (stdout string, metrics, samples []byte) {
		t.Helper()
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.json")
		cPath := filepath.Join(dir, "s.csv")
		args := append([]string{"-exp", "saturation", "-metrics", mPath, "-samples-csv", cPath}, extra...)
		code, out, errw := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr = %q", name, code, errw)
		}
		m, err := os.ReadFile(mPath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(cPath)
		if err != nil {
			t.Fatal(err)
		}
		return out, m, c
	}

	perfDir := t.TempDir()
	offOut, offMetrics, offSamples := runOne("off", "-parallel", "1")
	on1Out, on1Metrics, on1Samples := runOne("on/1",
		"-parallel", "1", "-perf-json", filepath.Join(perfDir, "p1.json"))
	on8Out, on8Metrics, on8Samples := runOne("on/8",
		"-parallel", "8", "-perf-json", filepath.Join(perfDir, "p8.json"))

	for _, c := range []struct {
		name          string
		off, on1, on8 string
	}{
		{"stdout", offOut, on1Out, on8Out},
		{"-metrics JSON", string(offMetrics), string(on1Metrics), string(on8Metrics)},
		{"samples CSV", string(offSamples), string(on1Samples), string(on8Samples)},
	} {
		if c.off != c.on1 {
			t.Errorf("%s differs with the perf plane on at -parallel 1", c.name)
		}
		if c.off != c.on8 {
			t.Errorf("%s differs with the perf plane on at -parallel 8", c.name)
		}
	}

	// The perf documents themselves are wall-clock data, but the metered
	// event count is window-granular and deterministic: both widths must
	// report the same perf.engine.events.
	load := func(p string) map[string]float64 {
		t.Helper()
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc perf.Document
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if doc.Schema != perf.DocumentSchema {
			t.Fatalf("%s: schema %q, want %q", p, doc.Schema, perf.DocumentSchema)
		}
		vals := map[string]float64{}
		for _, m := range doc.Metrics {
			if len(m.Labels) == 0 {
				vals[m.Name] = m.Value
			}
		}
		return vals
	}
	p1 := load(filepath.Join(perfDir, "p1.json"))
	p8 := load(filepath.Join(perfDir, "p8.json"))
	if p1["perf.engine.events"] == 0 {
		t.Error("perf.engine.events = 0; the dispatch meter never flushed a window")
	}
	if p1["perf.engine.events"] != p8["perf.engine.events"] {
		t.Errorf("metered events differ across widths: %g at -parallel 1, %g at -parallel 8",
			p1["perf.engine.events"], p8["perf.engine.events"])
	}
	if p1["perf.run.events_per_s"] <= 0 {
		t.Errorf("perf.run.events_per_s = %g, want > 0", p1["perf.run.events_per_s"])
	}
	if p1["perf.mem.heap_peak_bytes"] <= 0 {
		t.Errorf("perf.mem.heap_peak_bytes = %g, want > 0", p1["perf.mem.heap_peak_bytes"])
	}
	if p8["perf.pool.points"] < 2 {
		t.Errorf("perf.pool.points = %g, want >= 2 (saturation sweeps 2 points)", p8["perf.pool.points"])
	}
}

// TestPerfEventsEqualEngineFired: the dispatch meters flush their tail
// window when an engine's run returns, so over the three-experiment
// reference run of docs/PERFORMANCE.md the failover phase sees its events
// (none of its engines fills a meter window; cachehit drives its switches
// without an engine and stays at 0)
// and the perf plane's totals equal what the engines fired, as the sim-time
// plane's net.engine.fired_events counts it.
func TestPerfEventsEqualEngineFired(t *testing.T) {
	dir := t.TempDir()
	mPath, pPath := filepath.Join(dir, "m.json"), filepath.Join(dir, "p.json")
	code, _, errw := runCLI(t, "-exp", "saturation,failover,cachehit", "-parallel", "1",
		"-metrics", mPath, "-perf-json", pPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	type series struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	load := func(path string) []series {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Metrics []series `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return doc.Metrics
	}
	var fired float64
	for _, m := range load(mPath) {
		if m.Name == "net.engine.fired_events" {
			fired += m.Value
		}
	}
	var metered, phases float64
	for _, m := range load(pPath) {
		switch m.Name {
		case "perf.engine.events":
			metered = m.Value
		case "perf.phase.events":
			if m.Value == 0 && m.Labels["phase"] != "cachehit" {
				t.Errorf("perf.phase.events{phase=%s} = 0", m.Labels["phase"])
			}
			phases += m.Value
		}
	}
	if fired == 0 || metered != fired || phases != fired {
		t.Errorf("engines fired %g events; perf.engine.events = %g, sum of perf.phase.events = %g",
			fired, metered, phases)
	}
}

// -perf-json - streams the document to stdout and moves the tables to
// stderr, like every other '-' export.
func TestPerfJSONToStdout(t *testing.T) {
	code, out, errw := runCLI(t, "-exp", "saturation", "-perf-json", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	var doc perf.Document
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not one perf document: %v\n%.400s", err, out)
	}
	if !strings.Contains(errw, "RMT") {
		t.Error("tables did not move to stderr with -perf-json -")
	}
	if !strings.Contains(errw, "perf:") {
		t.Error("stderr missing the perf summary line")
	}
}

func TestVersionFlag(t *testing.T) {
	code, out, _ := runCLI(t, "-version")
	if code != 0 {
		t.Fatalf("-version exit = %d", code)
	}
	if !strings.Contains(out, runtime.Version()) {
		t.Errorf("-version output %q missing go version %q", out, runtime.Version())
	}
}

// The profiler must leave valid, non-empty profiles behind even when the
// watchdog kills the run mid-experiment.
func TestWatchdogFlushesProfiles(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	exps := []experiment{{"hang", "never returns", func(io.Writer) error { <-release; return nil }}}
	code, _, errw := func() (int, string, string) {
		var out, errb strings.Builder
		c := run(exps, []string{"-exp", "hang", "-exp-timeout", "50ms",
			"-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
		return c, out.String(), errb.String()
	}()
	if code != 4 || !strings.Contains(errw, "watchdog") {
		t.Fatalf("exit %d (want 4, the watchdog-kill code), stderr %q", code, errw)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing after watchdog kill: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty after watchdog kill", p)
		}
	}
}

// /perf on the -serve plane serves the live perf document: the plane is
// implicitly enabled by -serve. (Status codes, /healthz and the rest of the
// base plane are internal/service's TestHTTPContract.)
func TestServePerfEndpoint(t *testing.T) {
	var addr string
	listenReady = func(a string) { addr = a }
	defer func() { listenReady = nil }()

	probe := func(w io.Writer) error {
		base := "http://" + addr
		code, body := httpGet(t, base+"/perf")
		if code != 200 {
			t.Errorf("/perf = %d", code)
		}
		var doc perf.Document
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/perf not a perf document: %v (%q)", err, body)
		}
		if doc.Schema != perf.DocumentSchema {
			t.Errorf("/perf schema = %q, want %q", doc.Schema, perf.DocumentSchema)
		}
		found := false
		for _, m := range doc.Metrics {
			if m.Name == "perf.engine.events" && m.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Error("/perf missing live perf.engine.events > 0 (saturation already ran)")
		}
		return nil
	}

	exps := []experiment{
		defaultExperiment(t, "saturation"),
		{"probe", "", probe},
	}
	code, _, errw := func() (int, string, string) {
		var out, errb strings.Builder
		c := run(exps, []string{"-exp", "all", "-serve", "127.0.0.1:0"}, &out, &errb)
		return c, out.String(), errb.String()
	}()
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
}
