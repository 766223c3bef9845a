package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestReportOutput runs real experiments with -report and -samples-* and
// checks the HTML is self-contained with charts and latency tables.
func TestReportOutput(t *testing.T) {
	dir := t.TempDir()
	rp := filepath.Join(dir, "run.html")
	code, _, errw := runCLI(t, "-exp", "table1,saturation", "-report", rp)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	if telemetry.Hub() != nil {
		t.Fatal("process telemetry hub not reset after run")
	}
	raw, err := os.ReadFile(rp)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, banned := range []string{"<script", "http://", "https://", "<link"} {
		if strings.Contains(out, banned) {
			t.Errorf("report not self-contained: found %q", banned)
		}
	}
	// At least four sampled time series drawn as charts.
	if n := strings.Count(out, "<polyline"); n < 4 {
		t.Errorf("report draws %d polylines, want >= 4", n)
	}
	// Per-port latency percentile table from the e2e histograms.
	if !strings.Contains(out, "net.e2e_latency_ps") {
		t.Error("report missing net.e2e_latency_ps latency table")
	}
	for _, col := range []string{"<th>p50</th>", "<th>p99</th>"} {
		if !strings.Contains(out, col) {
			t.Errorf("report missing column %s", col)
		}
	}
}

// Sampled outputs must be byte-identical across same-seed runs; the CSV
// must carry the documented header and real rows.
func TestSamplesOutputsDeterministic(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(tag string) (csv, js []byte) {
		t.Helper()
		cp := filepath.Join(dir, tag+".csv")
		jp := filepath.Join(dir, tag+".json")
		code, _, errw := runCLI(t, "-exp", "saturation", "-samples-csv", cp, "-samples-json", jp)
		if code != 0 {
			t.Fatalf("exit = %d, stderr = %q", code, errw)
		}
		csv, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		js, err = os.ReadFile(jp)
		if err != nil {
			t.Fatal(err)
		}
		return csv, js
	}
	c1, j1 := runOnce("a")
	c2, j2 := runOnce("b")
	if !bytes.Equal(c1, c2) {
		t.Error("samples CSV differs between identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("samples JSON differs between identical runs")
	}
	lines := strings.Split(string(c1), "\n")
	if lines[0] != "name,labels,run,t_ps,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Errorf("CSV has only %d lines; sampling did not run", len(lines))
	}
	if !strings.Contains(string(j1), telemetry.SamplesSchema) {
		t.Errorf("samples JSON missing schema %q", telemetry.SamplesSchema)
	}
}

// Profiles must be written and non-empty (their contents are pprof's
// business, not ours).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "cpu.pb.gz")
	mp := filepath.Join(dir, "mem.pb.gz")
	code, _, errw := runCLI(t, "-exp", "walk", "-cpuprofile", cp, "-memprofile", mp)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	for _, p := range []string{cp, mp} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
