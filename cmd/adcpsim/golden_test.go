package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this run's -parallel 1 output (make golden)")

// TestExpAllGolden is the repository's drift gate: the bytes `adcpsim -exp
// all` prints are the reproduction's deliverable, so they are committed and
// compared exactly. At -parallel 1 and at 8, stdout must equal
// testdata/exp-all.stdout and the exp.* rows of the -metrics document must
// equal testdata/exp-all.exp.txt (one `name{k=v,…} value` line per series in
// document order, the number's text taken verbatim from the JSON, so a
// failure names the row that moved). testdata/exports.sha256 pins the whole
// metrics document (every switch.*, net.* and cct.* series too) and the
// trace exports of `-exp walk,saturation`, with and without -trace-detail. A
// change that moves these bytes on purpose regenerates them with `make
// golden` and says why.
func TestExpAllGolden(t *testing.T) {
	dir := t.TempDir()
	cli := func(args ...string) string {
		t.Helper()
		code, out, errw := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("adcpsim %s: exit %d, stderr = %q", strings.Join(args, " "), code, errw)
		}
		return out
	}
	read := func(file string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sumLine := func(label string, b []byte) string {
		return fmt.Sprintf("%x  %s\n", sha256.Sum256(b), label)
	}

	// Tracing forces -parallel 1, so the trace exports are taken once. The
	// suffix of -spans picks its format, hence the second run; the third
	// pins the per-stage, per-switch-process and occupancy-counter events
	// only -trace-detail emits.
	cli("-exp", "walk,saturation", "-trace", filepath.Join(dir, "t.json"),
		"-trace-jsonl", filepath.Join(dir, "t.jsonl"), "-spans", filepath.Join(dir, "s.json"))
	cli("-exp", "walk,saturation", "-spans", filepath.Join(dir, "s.jsonl"))
	cli("-exp", "walk,saturation", "-trace-detail", "-trace", filepath.Join(dir, "d.json"),
		"-trace-jsonl", filepath.Join(dir, "d.jsonl"))
	traceSums := sumLine("trace", read("t.json")) + sumLine("trace-jsonl", read("t.jsonl")) +
		sumLine("spans", read("s.json")) + sumLine("spans.jsonl", read("s.jsonl")) +
		sumLine("trace-detail", read("d.json")) + sumLine("trace-detail.jsonl", read("d.jsonl"))

	for _, width := range []string{"1", "8"} {
		out := cli("-exp", "all", "-parallel", width, "-metrics", filepath.Join(dir, "m.json"))
		metrics := read("m.json")
		for _, g := range []struct{ file, got string }{
			{"exp-all.stdout", out},
			{"exp-all.exp.txt", expRows(t, metrics)},
			{"exports.sha256", sumLine("metrics", metrics) + traceSums},
		} {
			path := filepath.Join("testdata", g.file)
			if *update && width == "1" {
				if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if g.got != string(want) {
				t.Errorf("-parallel %s: output differs from %s (- golden, + this run):\n%s",
					width, path, lineDiff(string(want), g.got))
			}
		}
	}
}

// expRows renders the exp.* series of a metrics document one per line,
// `name{k=v,…} value`, in document order. The value is the JSON number's
// own text, so no float formatting sits between the export and the golden.
func expRows(t *testing.T, metrics []byte) string {
	t.Helper()
	var doc struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  json.Number       `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(metrics, &doc); err != nil {
		t.Fatalf("-metrics document: %v", err)
	}
	if doc.Schema != telemetry.SnapshotSchema {
		t.Fatalf("-metrics schema %q, want %q", doc.Schema, telemetry.SnapshotSchema)
	}
	var b strings.Builder
	for _, m := range doc.Metrics {
		if !strings.HasPrefix(m.Name, "exp.") {
			continue
		}
		labels := make([]string, 0, len(m.Labels))
		for k, v := range m.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		fmt.Fprintf(&b, "%s{%s} %s\n", m.Name, strings.Join(labels, ","), m.Value)
	}
	return b.String()
}

// lineDiff lists the lines only one side has, golden's first, capped so a
// wholesale change stays readable.
func lineDiff(want, got string) string {
	const maxLines = 20
	only := func(prefix, a, b string) []string {
		in := map[string]bool{}
		for _, l := range strings.Split(b, "\n") {
			in[l] = true
		}
		var out []string
		for _, l := range strings.Split(a, "\n") {
			if !in[l] {
				out = append(out, prefix+l)
			}
		}
		return out
	}
	lines := append(only("- ", want, got), only("+ ", got, want)...)
	if len(lines) == 0 {
		return "(the same lines, reordered or repeated)"
	}
	if len(lines) > maxLines {
		lines = append(lines[:maxLines], fmt.Sprintf("… and %d more lines", len(lines)-maxLines))
	}
	return strings.Join(lines, "\n")
}
