package metricnames

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func repoRoot() string { return filepath.Join("..", "..") }

func TestScanFindsKnownRegistrations(t *testing.T) {
	found, err := Scan(repoRoot())
	if err != nil {
		t.Fatal(err)
	}
	// One representative per registration mechanism.
	wants := map[string]string{
		"net.e2e_latency_ps":                       "histogram", // direct reg.Histogram literal
		"net.injected_pkts":                        "gauge",     // direct reg.ObserveFunc literal
		"net.retx.pkts":                            "gauge",     // file-local forwarding helper (retx := func(name string, ...))
		"exp.saturation.cct_ps":                    "value",     // experiments table column declaration
		telemetry.BucketRecirculation.SeriesName(): "value",     // dynamic bucket family
	}
	for name, kind := range wants {
		if got := found[name].Kind; got != kind {
			t.Errorf("Scan[%q] = %q, want %q", name, got, kind)
		}
	}
	// Trace event names must NOT be mistaken for metrics.
	for _, not := range []string{"switch.process", "switch.arrive", "switch.error"} {
		if _, ok := found[not]; ok {
			t.Errorf("Scan picked up trace event name %q as a metric", not)
		}
	}
}

// Every exp.* series is declared with literal label keys — a table's label
// columns, or the L("key", ...) arguments of a direct reg.Set — and the
// catalog's hand-written label list must name exactly those keys.
func TestExpLabelsMatchCatalog(t *testing.T) {
	found, err := Scan(repoRoot())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for name, s := range found {
		if !strings.HasPrefix(name, "exp.") {
			continue
		}
		n++
		if got, want := strings.Join(s.Labels, ", "), Catalog[name].Labels; got != want {
			t.Errorf("%s declares labels %q, catalog documents %q", name, got, want)
		}
	}
	if n == 0 {
		t.Fatal("Scan found no exp.* series")
	}
}

// One experiment number has one name: declaring an exp.* series in two
// places (say a table column and a direct Set) is a scan error.
func TestScanRejectsExpDeclaredTwice(t *testing.T) {
	root := t.TempDir()
	src := `package demo

func run(reg registry) {
	newTable("demo", col{head: "x", metric: "exp.demo.x", label: "k"}).AddRow(1)
	reg.Set("exp.demo.x", 1)
}
`
	if err := os.MkdirAll(filepath.Join(root, "internal", "demo"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "demo", "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Scan(root)
	if err == nil || !strings.Contains(err.Error(), "exp.demo.x") {
		t.Fatalf("Scan accepted an exp.* series declared twice: %v", err)
	}
}

func TestGenerateMatchesCommittedDoc(t *testing.T) {
	doc, err := Generate(repoRoot())
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(repoRoot(), "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != string(committed) {
		t.Fatal("docs/METRICS.md is stale: run `go run ./cmd/metricsdoc`")
	}
}

func TestGenerateFailsOnUndocumentedSeries(t *testing.T) {
	root := t.TempDir()
	src := `package demo

func register(reg registry) {
	reg.Counter("demo.rogue_series")
}
`
	if err := os.MkdirAll(filepath.Join(root, "internal", "demo"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "demo", "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Generate(root)
	if err == nil {
		t.Fatal("Generate accepted an undocumented series")
	}
	if !strings.Contains(err.Error(), "demo.rogue_series") {
		t.Fatalf("error does not name the rogue series: %v", err)
	}
}
