// Package metricnames is the source of truth for the metrics reference
// (docs/METRICS.md). It couples two halves: Scan walks the non-test Go
// sources and extracts every series name registered on the telemetry
// registry or declared as an experiment table column, and Catalog carries
// the hand-written kind/label/meaning documentation for each. Generate joins them — and fails loudly when a
// registered series is undocumented, a documented series no longer exists,
// or the documented kind drifts from the registration — so `make
// docs-check` (and CI) keeps the reference exact.
package metricnames

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// kindOf maps registry method names to documented kinds. ObserveFunc
// registers a lazily-read gauge; Set registers a set-once result value.
var kindOf = map[string]string{
	"Counter":     "counter",
	"Gauge":       "gauge",
	"Histogram":   "histogram",
	"Set":         "value",
	"ObserveFunc": "gauge",
}

// Series is one registered series as the source declares it.
type Series struct {
	Kind string
	// Labels are the label keys an exp.* series is declared with, in
	// declaration order; nil for the other families, whose labels are not
	// string literals at the registration.
	Labels []string
	where  string
}

// Scan extracts every registry series registered by non-test Go files
// under root's internal/ and cmd/ trees, keyed by name. It recognizes
//
//   - direct registrations: reg.Counter("name", ...) and friends, where
//     the receiver is the conventional identifier `reg` (a reg.Set of an
//     exp.* series also yields the keys of its literal L("key", ...)
//     labels);
//   - experiment table declarations: newTable(title, col{...}, ...), where
//     every col's metric: "name" registers a value series labeled by the
//     keys of the call's label: columns;
//   - file-local forwarding helpers: h := func(name string, ...) { ...
//     reg.Kind(name, ...) } followed by h("literal", ...);
//   - the dynamic cct.attr.* family, enumerated from the telemetry bucket
//     set rather than source text (CritPath.Publish registers them via
//     Bucket.SeriesName()).
//
// A name registered with two different kinds is an error, and so is an
// exp.* name declared in two places: each experiment number has one name.
func Scan(root string) (map[string]Series, error) {
	found := map[string]Series{}
	add := func(name string, s Series) error {
		if prev, ok := found[name]; ok {
			if prev.Kind != s.Kind {
				return fmt.Errorf("%s: series %q registered as both %s and %s", s.where, name, prev.Kind, s.Kind)
			}
			if strings.HasPrefix(name, "exp.") {
				return fmt.Errorf("%s: series %q is also declared in %s", s.where, name, prev.where)
			}
		}
		found[name] = s
		return nil
	}
	for bk := telemetry.Bucket(0); bk < telemetry.NumBuckets; bk++ {
		if err := add(bk.SeriesName(), Series{Kind: "value", where: "telemetry.CritPath.Publish"}); err != nil {
			return nil, err
		}
	}
	for _, dir := range []string{"internal", "cmd"} {
		base := filepath.Join(root, dir)
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			return scanFile(path, add)
		})
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
	}
	return found, nil
}

// scanFile extracts registrations from one source file.
func scanFile(path string, add func(name string, s Series) error) error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return err
	}

	// Pass 1: find file-local forwarding helpers — `h := func(name string,
	// ...) { ... reg.Kind(name, ...) }` — and remember their kinds.
	helpers := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok || fn.Type.Params == nil || len(fn.Type.Params.List) == 0 {
			return true
		}
		params := fn.Type.Params.List[0]
		if t, ok := params.Type.(*ast.Ident); !ok || t.Name != "string" || len(params.Names) == 0 {
			return true
		}
		param := params.Names[0].Name
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			kind, arg0 := regCall(m)
			if kind == "" {
				return true
			}
			if id, ok := arg0.(*ast.Ident); ok && id.Name == param {
				helpers[lhs.Name] = kind
			}
			return true
		})
		return true
	})

	// Pass 2: collect literal registrations — direct, via table column
	// declarations, and via the helpers found above.
	var scanErr error
	where := filepath.Base(path)
	ast.Inspect(f, func(n ast.Node) bool {
		if scanErr != nil {
			return false
		}
		if kind, arg0 := regCall(n); kind != "" {
			if name, ok := strArg(arg0); ok {
				s := Series{Kind: kind, where: where}
				if strings.HasPrefix(name, "exp.") {
					s.Labels = literalLabelKeys(n.(*ast.CallExpr).Args[2:])
				}
				scanErr = add(name, s)
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "newTable" {
			metrics, labels := columns(call.Args[1:])
			for _, name := range metrics {
				if scanErr = add(name, Series{Kind: "value", Labels: labels, where: where}); scanErr != nil {
					break
				}
			}
			return true
		}
		if name, lit := strArg(call.Args[0]); lit {
			if kind, ok := helpers[id.Name]; ok {
				scanErr = add(name, Series{Kind: kind, where: where})
			}
		}
		return true
	})
	return scanErr
}

// columns reads a table's col{...} declarations: the series its metric
// columns register and the label keys its label columns supply.
func columns(args []ast.Expr) (metrics, labels []string) {
	for _, a := range args {
		lit, ok := a.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, e := range lit.Elts {
			kv, ok := e.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			val, ok := strArg(kv.Value)
			if key == nil || !ok {
				continue
			}
			switch key.Name {
			case "metric":
				metrics = append(metrics, val)
			case "label":
				labels = append(labels, val)
			}
		}
	}
	return metrics, labels
}

// literalLabelKeys returns the keys of L("key", ...) / telemetry.L("key",
// ...) label arguments.
func literalLabelKeys(args []ast.Expr) []string {
	var keys []string
	for _, a := range args {
		call, ok := a.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			continue
		}
		fn := call.Fun
		if sel, ok := fn.(*ast.SelectorExpr); ok {
			fn = sel.Sel
		}
		if id, ok := fn.(*ast.Ident); !ok || id.Name != "L" {
			continue
		}
		if key, ok := strArg(call.Args[0]); ok {
			keys = append(keys, key)
		}
	}
	return keys
}

// regCall matches reg.<Kind>(arg0, ...) and returns the documented kind
// and the first argument, or ("", nil).
func regCall(n ast.Node) (string, ast.Expr) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok || recv.Name != "reg" {
		return "", nil
	}
	kind, ok := kindOf[sel.Sel.Name]
	if !ok {
		return "", nil
	}
	return kind, call.Args[0]
}

// strArg unquotes a string literal argument.
func strArg(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// Doc is the hand-written documentation of one series.
type Doc struct {
	Kind    string // counter | gauge | histogram | value
	Labels  string // label keys, comma-separated; "" = none
	Meaning string
}

// section groups series by name prefix for the generated document.
type section struct {
	prefix, title, blurb string
}

var sections = []section{
	{"cct.attr.", "Critical-path CCT attribution",
		"Per-coflow breakdown of the completion time along the causal critical path. The buckets tile the measured CCT exactly (their sum equals `LastDeliver - FirstSend` to the picosecond); see docs/OBSERVABILITY.md for the span model."},
	{"exp.", "Experiment headline results",
		"Set-once results recorded by the experiments in internal/experiments; labels carry the sweep coordinates, so every point exports as its own series."},
	{"ha.", "Replication and failover",
		"Warm-standby replication counters, registered only when a network is built with a standby pair."},
	{"net.", "Network simulator",
		"End-host and wire-level series from internal/netsim. Fault and retransmission families exist only when a fault plan or recovery is configured."},
	{"perf.", "Wall-clock performance plane",
		"Machine-dependent throughput, allocation, and worker-pool meters from internal/perf. These live in a registry of their own, exported only via `-perf-json` and the `/perf` endpoint (schema `adcp-perf/1`) — never through `-metrics` — so the deterministic exports stay byte-identical whether the plane is on or off. Wall-clock numbers: no test compares them, and a speed claim is made with the repository benchmark under bench/."},
	{"service.", "Job daemon service plane",
		"Operational gauges from the experiment job daemon (internal/service, `adcpsim -daemon`): queue depth and shedding, terminal-state counts, recovery and retry activity, drain state. Registered in the daemon's own registry and served on the daemon's `/metrics`; per-job experiment metrics live under `/jobs/{id}/metrics` instead."},
	{"switch.", "Switch models",
		"Per-switch-instance series from the ADCP (internal/core) and RMT (internal/rmt) models and the shared TM/pipeline observers."},
}

// Generate renders the metrics reference for the tree at root, verifying
// the catalog against the scanned registrations first.
func Generate(root string) ([]byte, error) {
	found, err := Scan(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for name, s := range found {
		d, ok := Catalog[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("series %q is registered but not documented in internal/metricnames", name))
			continue
		}
		if d.Kind != s.Kind {
			problems = append(problems, fmt.Sprintf("series %q documented as %s but registered as %s", name, d.Kind, s.Kind))
		}
	}
	for name := range Catalog {
		if _, ok := found[name]; !ok {
			problems = append(problems, fmt.Sprintf("series %q is documented but no longer registered anywhere", name))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("metrics documentation drift:\n  %s", strings.Join(problems, "\n  "))
	}

	names := make([]string, 0, len(Catalog))
	for name := range Catalog {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("<!-- Generated by `go run ./cmd/metricsdoc`. Do not edit by hand: edit the catalog in internal/metricnames and regenerate. `make docs-check` fails on drift. -->\n\n")
	b.WriteString("Every series the telemetry registry can export (`adcpsim -metrics`, `/metrics`, the HTML report). Kinds: **counter** — monotonic count; **gauge** — instantaneous readout (including lazily-evaluated `ObserveFunc` registrations); **histogram** — distribution with count/mean/p50/p90/p99/min/max; **value** — set-once result, excluded from time-series sampling.\n")
	for _, sec := range sections {
		var in []string
		for _, name := range names {
			if strings.HasPrefix(name, sec.prefix) {
				in = append(in, name)
			}
		}
		if len(in) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n## %s\n\n%s\n\n", sec.title, sec.blurb)
		b.WriteString("| series | kind | labels | meaning |\n|---|---|---|---|\n")
		for _, name := range in {
			d := Catalog[name]
			labels := d.Labels
			if labels == "" {
				labels = "—"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", name, d.Kind, labels, d.Meaning)
		}
	}
	// Catch catalog entries outside every section (a new prefix needs a
	// new section, not silent omission).
	for _, name := range names {
		matched := false
		for _, sec := range sections {
			if strings.HasPrefix(name, sec.prefix) {
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("series %q matches no document section; add one in internal/metricnames", name)
		}
	}
	return []byte(b.String()), nil
}
