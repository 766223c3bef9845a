package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The repository itself must pass its own documentation lint — this is
// the same gate `make docs-check` applies in CI.
func TestRepositoryPassesDocscheck(t *testing.T) {
	problems := check(filepath.Join("..", ".."))
	for _, p := range problems {
		t.Error(p)
	}
}

func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMissingPackageDocDetected(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/good/good.go", "// Package good is documented.\npackage good\n")
	write(t, root, "internal/bad/bad.go", "package bad\n")
	write(t, root, "cmd/tool/main.go", "// Command tool does things.\npackage main\n")
	write(t, root, "cmd/undoc/main.go", "package main\n")
	problems := check(root)
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "internal/bad") {
		t.Errorf("undocumented internal package not flagged: %v", problems)
	}
	if !strings.Contains(joined, "cmd/undoc") {
		t.Errorf("undocumented command not flagged: %v", problems)
	}
	if strings.Contains(joined, "internal/good") || strings.Contains(joined, "cmd/tool") {
		t.Errorf("documented packages flagged: %v", problems)
	}
}

func TestBrokenMarkdownLinkDetected(t *testing.T) {
	root := t.TempDir()
	write(t, root, "DESIGN.md", "design doc\n")
	write(t, root, "docs/REAL.md", "# real\n")
	write(t, root, "README.md", strings.Join([]string{
		"see [design](DESIGN.md) and [real](docs/REAL.md)",
		"skip [site](https://example.com) and [anchor](#section) and [mail](mailto:x@y.z)",
		"fragment ok: [real section](docs/REAL.md#part)",
		"broken: [ghost](docs/GHOST.md)",
		"broken fragment: [gone](MISSING.md#x)",
	}, "\n"))
	problems := check(root)
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "docs/GHOST.md") {
		t.Errorf("broken link not flagged: %v", problems)
	}
	if !strings.Contains(joined, "MISSING.md") {
		t.Errorf("broken link with fragment not flagged: %v", problems)
	}
	for _, ok := range []string{"DESIGN.md", "REAL.md#part", "example.com", "#section", "mailto"} {
		for _, p := range problems {
			if strings.Contains(p, ok) && !strings.Contains(p, "GHOST") && !strings.Contains(p, "MISSING") {
				t.Errorf("valid link flagged: %s", p)
			}
		}
	}
	// Links inside docs/ resolve relative to docs/.
	write(t, root, "docs/INDEX.md", "[up](../DESIGN.md) [sib](REAL.md) [bad](NOPE.md)\n")
	problems = check(root)
	joined = strings.Join(problems, "\n")
	if !strings.Contains(joined, "NOPE.md") {
		t.Errorf("broken sibling link not flagged: %v", problems)
	}
	if strings.Contains(joined, "../DESIGN.md") || strings.Contains(joined, `"REAL.md"`) {
		t.Errorf("valid relative links flagged: %v", problems)
	}
}

// expectNamed builds a tree with a Makefile, one command and a few test
// functions, writes doc both as a living document and as a history file,
// and demands exactly the want problems for the former and none for the
// latter (history may name what is gone).
func expectNamed(t *testing.T, doc string, want ...string) {
	t.Helper()
	root := t.TempDir()
	write(t, root, "Makefile", "LOC_CEILING := 1\nci: build\n\tgo test ./...\nbuild:\n\tgo build ./...\n")
	write(t, root, "cmd/tool/main.go", "// Command tool does things.\npackage main\n")
	write(t, root, "internal/ha/ha.go", "// Package ha is a fixture.\npackage ha\n\nimport \"sync\"\n\ntype Pair[T any] struct {\n\t*sync.Mutex\n\tOpts T\n}\n\nfunc (p *Pair[T]) Submit() {}\n\ntype Committer interface{ Commit() }\n\nvar Default = 1\n\nfunc Capture() {}\n")
	write(t, root, "internal/x/x_test.go", "package x\n\nfunc TestReal(t *testing.T) {}\nfunc TestHopAllocsWarm(t *testing.T) {}\nfunc BenchmarkReal(b *testing.B) {}\nfunc FuzzReal(f *testing.F) {}\nfunc ExampleReal() {}\n")
	write(t, root, "docs/GUIDE.md", doc)
	write(t, root, "CHANGES.md", doc)
	var got []string
	for _, p := range check(root) {
		if strings.HasPrefix(p, "CHANGES.md") {
			t.Errorf("history file linted: %s", p)
		}
		if strings.HasPrefix(p, "docs/GUIDE.md:") {
			got = append(got, strings.TrimPrefix(p, "docs/GUIDE.md:"))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems = %q, want %q", got, want)
	}
}

func TestUnknownMakeTargetDetected(t *testing.T) {
	expectNamed(t, strings.Join([]string{
		"run `make ci` or `make build FOO=1`, never `make retired`.",
		"make sure prose is not a target",
		"```sh",
		"make gone   # deleted last year",
		"make ci",
		"```",
	}, "\n"),
		"1: `make retired` is not a Makefile target",
		"4: `make gone` is not a Makefile target")
}

func TestMissingCommandDirDetected(t *testing.T) {
	expectNamed(t, "`cmd/tool`, `go run ./cmd/tool -x` and internal/x exist; cmd/retired and `internal/gone` do not.\n",
		"1: cmd/retired is not a directory",
		"1: internal/gone is not a directory")
}

func TestStaleGoRunDetected(t *testing.T) {
	expectNamed(t, strings.Join([]string{
		"`go run ./cmd/tool -x`, `go run ./cmd/tool/...` and `go run ./internal/x`.",
		"```sh",
		"go run ./examples/scheduler   # deleted",
		"```",
		"Then `go run ./tools/gone.`",
	}, "\n"),
		"3: `go run ./examples/scheduler` names no directory",
		"5: `go run ./tools/gone` names no directory")
}

func TestUnknownTestFunctionDetected(t *testing.T) {
	expectNamed(t, strings.Join([]string{
		"`TestReal`, `BenchmarkReal/sub`, `FuzzReal`, `ExampleReal` and the `TestHopAllocs*` family exist.",
		"`TestGone`, `BenchmarkEngine`, `FuzzGone`, `ExampleQuickstart` and `TestNoSuch*` do not; Testing, Benchmarks and Examples are words.",
	}, "\n"),
		"2: BenchmarkEngine is not a test, benchmark, fuzz or example function in the tree",
		"2: ExampleQuickstart is not a test, benchmark, fuzz or example function in the tree",
		"2: FuzzGone is not a test, benchmark, fuzz or example function in the tree",
		"2: TestGone is not a test, benchmark, fuzz or example function in the tree",
		"2: TestNoSuch is not a test, benchmark, fuzz or example function in the tree")
}

func TestStaleGoIdentifierDetected(t *testing.T) {
	expectNamed(t, strings.Join([]string{
		"`ha.Capture(sw)`, `*ha.Pair`, `ha.Pair.Submit`, `ha.Pair.Opts`, `ha.Pair.Mutex`, `ha.Committer.Commit` and `ha.Default` exist;",
		"`bytes.Equal`, `json.MarshalIndent`, `ha.capture_ms` and `internal/gone.Thing` name no internal package's Go declaration.",
		"`ha.SaveCheckpoint(path, sw)`, `ha.Pair.Gone` and `gone.Thing` do not; neither do `ha.Capture.Member` and `ha.Pair.Lock` (promoted).",
		"```go",
		"ha.NotChecked() // fenced code is not a reference",
		"```",
	}, "\n"),
		"2: internal/gone is not a directory",
		"3: `ha.Capture.Member` is not declared in internal/ha",
		"3: `ha.Pair.Gone` is not declared in internal/ha",
		"3: `ha.Pair.Lock` is not declared in internal/ha",
		"3: `ha.SaveCheckpoint` is not declared in internal/ha")
}
