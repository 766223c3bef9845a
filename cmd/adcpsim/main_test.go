package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// defaultExperiment returns the shipped experiment with the given id.
func defaultExperiment(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range defaultExperiments() {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no default experiment %q", name)
	return experiment{}
}

// Every experiment runner must execute cleanly — this is the CLI's
// contract (the experiments' numeric assertions live in
// internal/experiments).
func TestAllRunners(t *testing.T) {
	for _, e := range defaultExperiments() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if err := e.run(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(defaultExperiments(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListAndUsage(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, e := range defaultExperiments() {
		if !strings.Contains(out, e.name) {
			t.Errorf("-list output missing %q", e.name)
		}
	}
	if code, _, errw := runCLI(t, "-exp", "nosuch"); code != 2 || !strings.Contains(errw, "nosuch") {
		t.Fatalf("unknown experiment: exit=%d stderr=%q", code, errw)
	}
}

// -metrics must produce a valid snapshot document with at least one
// exp.<id>.* series per selected experiment, and must leave no
// process-wide telemetry hub behind.
func TestRunMetricsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	sel := "table1,table2,walk,tension"
	code, _, errw := runCLI(t, "-exp", sel, "-metrics", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	if telemetry.Hub() != nil {
		t.Fatal("process telemetry hub not reset after run")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Schema != telemetry.SnapshotSchema {
		t.Fatalf("schema = %q, want %q", snap.Schema, telemetry.SnapshotSchema)
	}
	for _, id := range strings.Split(sel, ",") {
		prefix := "exp." + id + "."
		found := false
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no metric with prefix %q in %d series", prefix, len(snap.Metrics))
		}
	}
}

// Metrics and trace files must be byte-identical across runs: everything is
// keyed to simulated time and seeded PRNGs, never the wall clock.
func TestRunOutputsDeterministic(t *testing.T) {
	dir := t.TempDir()
	files := func(tag string) (string, string, string) {
		return filepath.Join(dir, tag+".json"),
			filepath.Join(dir, tag+".trace.json"),
			filepath.Join(dir, tag+".jsonl")
	}
	runOnce := func(tag string) (m, c, j []byte) {
		t.Helper()
		mp, cp, jp := files(tag)
		code, _, errw := runCLI(t, "-exp", "table1,walk,buffer",
			"-metrics", mp, "-trace", cp, "-trace-jsonl", jp)
		if code != 0 {
			t.Fatalf("exit = %d, stderr = %q", code, errw)
		}
		for _, p := range []string{mp, cp, jp} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("%s is empty", p)
			}
			switch p {
			case mp:
				m = b
			case cp:
				c = b
			case jp:
				j = b
			}
		}
		return m, c, j
	}
	m1, c1, j1 := runOnce("a")
	m2, c2, j2 := runOnce("b")
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("chrome trace differs between identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL trace differs between identical runs")
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(c1, &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

// A failing experiment must not be swallowed by later successes: the run
// continues, the id is reported on stderr, and the exit code is non-zero.
func TestRunReportsFailuresWithIDs(t *testing.T) {
	ranAfter := false
	exps := []experiment{
		{"good1", "", func(w io.Writer) error { fmt.Fprintln(w, "ok"); return nil }},
		{"bad", "", func(w io.Writer) error { return errors.New("synthetic breakage") }},
		{"good2", "", func(w io.Writer) error { ranAfter = true; return nil }},
	}
	var out, errw bytes.Buffer
	code := run(exps, []string{"-exp", "all"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !ranAfter {
		t.Error("experiment after the failure did not run")
	}
	se := errw.String()
	if !strings.Contains(se, "experiment bad failed: synthetic breakage") {
		t.Errorf("stderr missing failure with id: %q", se)
	}
	if !strings.Contains(se, "failed experiments: bad") {
		t.Errorf("stderr missing failure summary: %q", se)
	}
}

func TestRunProgress(t *testing.T) {
	exps := []experiment{
		{"one", "", func(w io.Writer) error { return nil }},
		{"two", "", func(w io.Writer) error { return nil }},
	}
	var out, errw bytes.Buffer
	if code := run(exps, []string{"-exp", "all", "-progress"}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"running one...", "running two..."} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stderr missing %q: %q", want, errw.String())
		}
	}
}
