package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// TestSpansExportChromeTrace: -spans writes a Chrome trace carrying ONLY
// the span category (plus metadata), so the causal-span view opens in
// Perfetto without the full event firehose.
func TestSpansExportChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.trace.json")
	code, _, errw := runCLI(t, "-exp", "table1", "-spans", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("spans export is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "span":
			spans++
			if !strings.HasPrefix(ev.Name, "span.") {
				t.Fatalf("span event named %q", ev.Name)
			}
		case ev.Ph == "M": // metadata names processes/threads; always kept
		default:
			t.Fatalf("non-span event leaked into -spans export: %+v", ev)
		}
	}
	if spans == 0 {
		t.Fatal("spans export carries no span events")
	}
}

// TestSpansExportJSONL: a .jsonl suffix selects the line-oriented format
// with exact picosecond timestamps.
func TestSpansExportJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	code, _, errw := runCLI(t, "-exp", "table1", "-spans", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"span"`)) {
		t.Fatal("JSONL spans export has no span events")
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

// TestStdoutExports: a path of "-" sends the export to stdout so it can
// be piped without touching disk; the experiment tables move to stderr
// so the piped stream is the export document alone.
func TestStdoutExports(t *testing.T) {
	code, out, errw := runCLI(t, "-exp", "walk", "-metrics", "-")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-metrics - stdout is not a pure JSON document (tables must move to stderr): %v\nstdout: %s", err, out)
	}
	if doc["schema"] != "adcp-metrics/1" {
		t.Fatalf("-metrics - stdout schema = %v", doc["schema"])
	}
	if errw == "" {
		t.Fatal("experiment tables vanished: expected them on stderr when exporting to stdout")
	}
	code, out, errw = runCLI(t, "-exp", "walk", "-samples-csv", "-")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	if !strings.HasPrefix(out, "name,labels,run,t_ps,value") {
		t.Fatalf("-samples-csv - stdout does not start with the CSV header:\n%s", out)
	}
}

// TestTraceForcesSequentialSweeps pins the fallback: tracing with
// -parallel N>1 must drop to a single worker (traces are not mergeable
// across point-local hubs) and say so on stderr.
func TestTraceForcesSequentialSweeps(t *testing.T) {
	seen := -1
	exps := []experiment{{"probe", "reads the active worker-pool width", func(io.Writer) error {
		seen = experiments.SetParallelism(1)
		experiments.SetParallelism(seen)
		return nil
	}}}
	var out, errw bytes.Buffer
	path := filepath.Join(t.TempDir(), "t.trace.json")
	code := run(exps, []string{"-exp", "probe", "-parallel", "4", "-trace", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw.String())
	}
	if seen != 1 {
		t.Fatalf("sweeps ran with %d workers under tracing, want 1", seen)
	}
	if !strings.Contains(errw.String(), "forcing -parallel 1") {
		t.Fatalf("stderr missing the sequential-fallback notice: %s", errw.String())
	}
}

// TestWatchdogDumpsFlightRing: when the watchdog kills a wedged
// experiment, the recorder's always-on flight ring — the last simulation
// events before the hang — lands on stderr.
func TestWatchdogDumpsFlightRing(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	exps := []experiment{{"hang", "records then wedges", func(io.Writer) error {
		fr := telemetry.Hub().Rec()
		if fr == nil {
			return fmt.Errorf("no flight recorder on the default hub")
		}
		fr.Record(42, "pre.hang", 7, 0)
		<-release
		return nil
	}}}
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "hang", "-exp-timeout", "50ms"}, &out, &errw)
	if code != 4 {
		t.Fatalf("exit %d, want 4 (the distinct watchdog-kill code)\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "flight recorder dump") {
		t.Fatalf("stderr missing flight dump: %s", errw.String())
	}
	if !strings.Contains(errw.String(), "pre.hang") {
		t.Fatalf("flight dump lost the recorded event: %s", errw.String())
	}
}
