// Command docscheck is the documentation linter `make docs-check` (and CI)
// runs: it fails the build when the documentation map drifts from the
// code it maps.
//
// Four checks:
//
//   - Godoc coverage: every package under internal/ must open with a
//     `// Package <name>` doc comment, and every command under cmd/ with a
//     `// Command <name>` comment, in at least one of its .go files.
//   - Markdown links: every relative link in README.md, the root *.md
//     files, and docs/*.md must resolve to an existing file or directory
//     (http/https/mailto and pure #anchor links are skipped; a #fragment
//     on a relative link is checked against the target file's existence
//     only).
//   - Metrics reference: docs/METRICS.md must byte-match a fresh
//     `go run ./cmd/metricsdoc` generation, which itself fails when a
//     registered series is missing from the internal/metricnames catalog
//     or vice versa.
//   - Named things: in README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md
//     (not CHANGES.md, ROADMAP.md and the other history files), every
//     `make <target>` is a Makefile target, every cmd/<name> and
//     internal/<name> and every `go run ./<path>` a directory, every
//     Test…/Benchmark…/Fuzz…/Example… a function in a _test.go file;
//     outside fenced blocks, every code span's `pkg.Name` is a top-level
//     declaration of internal/<pkg> and every `pkg.Type.Member` a method
//     or field of that type, as declared in the package's non-test files
//     (read with go/parser; an embedded field counts by its type's name,
//     the members it promotes do not).
//
// Usage:
//
//	docscheck [-root <repo root>]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/metricnames"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	problems := check(*root)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check runs every lint against the tree at root and returns one message
// per problem, sorted for deterministic output.
func check(root string) []string {
	var problems []string
	problems = append(problems, checkPackageDocs(root, "internal", "Package")...)
	problems = append(problems, checkPackageDocs(root, "cmd", "Command")...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkMetricsDoc(root)...)
	problems = append(problems, checkNamedThings(root)...)
	sort.Strings(problems)
	return problems
}

// checkPackageDocs requires each directory under dir to carry a
// `// <word> <dirname>` doc comment in at least one .go file.
func checkPackageDocs(root, dir, word string) []string {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var problems []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgDir := filepath.Join(root, dir, e.Name())
		goFiles, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
		if err != nil || len(goFiles) == 0 {
			continue
		}
		marker := fmt.Sprintf("// %s %s", word, e.Name())
		found := false
		for _, gf := range goFiles {
			raw, err := os.ReadFile(gf)
			if err != nil {
				continue
			}
			for _, line := range strings.Split(string(raw), "\n") {
				if line == marker || strings.HasPrefix(line, marker+" ") {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf(
				"%s/%s: no doc comment starting %q in any .go file", dir, e.Name(), marker))
		}
	}
	return problems
}

// linkRe matches inline markdown links [text](target). Reference-style
// links and autolinks are rare in this repo and out of scope.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies every relative link in the repo's top-level
// and docs/ markdown resolves to an existing path.
func checkMarkdownLinks(root string) []string {
	var files []string
	for _, pat := range []string{"*.md", filepath.Join("docs", "*.md")} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err == nil {
			files = append(files, m...)
		}
	}
	var problems []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		rel, _ := filepath.Rel(root, f)
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLink(target) {
					continue
				}
				// A fragment on a relative link: check the file part only.
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
					if target == "" {
						continue
					}
				}
				resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf(
						"%s:%d: broken link %q", rel, i+1, m[1]))
				}
			}
		}
	}
	return problems
}

// skipLink reports whether a link target is out of scope for the
// existence check (external URLs, mail, pure anchors).
func skipLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkMetricsDoc regenerates the metrics reference and byte-compares it
// with the committed docs/METRICS.md, so both undocumented registrations
// (Generate fails) and a stale committed file fail the lint.
func checkMetricsDoc(root string) []string {
	want, err := metricnames.Generate(root)
	if err != nil {
		return []string{fmt.Sprintf("docs/METRICS.md: %v", err)}
	}
	path := filepath.Join(root, "docs", "METRICS.md")
	got, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("docs/METRICS.md: %v (run `go run ./cmd/metricsdoc`)", err)}
	}
	if !bytes.Equal(got, want) {
		return []string{"docs/METRICS.md is stale: run `go run ./cmd/metricsdoc` and commit the result"}
	}
	return nil
}

var (
	makeRe     = regexp.MustCompile("(`|^\\s*)make ([a-z][a-z0-9-]*)") // a line-start match counts in a fenced block only
	pkgDirRe   = regexp.MustCompile(`\b((?:cmd|internal)/[a-z][a-z0-9_]*)`)
	goRunRe    = regexp.MustCompile(`go run \./([A-Za-z0-9_/-]*[A-Za-z0-9_])`)
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z][A-Za-z0-9_]*\*?`)
	codeSpanRe = regexp.MustCompile("`[^`]+`")
	goRefRe    = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Za-z_]\w*)?)`)
)

// checkNamedThings verifies that the living documents name only make
// targets (in a code span or a fenced block), cmd/ and internal/
// directories, `go run` packages, test functions and Go declarations that
// exist. A test name ending in `*` names a family.
func checkNamedThings(root string) []string {
	makefile, _ := os.ReadFile(filepath.Join(root, "Makefile"))
	var tests []byte // every _test.go in the tree
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		raw, err := os.ReadFile(path)
		tests = append(tests, raw...)
		return err
	})
	if err != nil {
		return []string{fmt.Sprintf("named things: %v", err)}
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	for _, f := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		docs = append(docs, filepath.Join(root, f))
	}
	decls := goDecls{root: root, pkgs: map[string]map[string]bool{}}
	var problems []string
	for _, f := range docs {
		raw, _ := os.ReadFile(f) // a missing document is the link check's to report
		rel, _ := filepath.Rel(root, f)
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			bad := func(what string) { problems = append(problems, fmt.Sprintf("%s:%d: %s", rel, i+1, what)) }
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			for _, m := range makeRe.FindAllStringSubmatch(line, -1) {
				if (fenced || m[1] == "`") && !bytes.Contains(makefile, []byte("\n"+m[2]+":")) {
					bad("`make " + m[2] + "` is not a Makefile target")
				}
			}
			for _, m := range pkgDirRe.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
					bad(m[1] + " is not a directory")
				}
			}
			for _, m := range goRunRe.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
					bad("`go run ./" + m[1] + "` names no directory")
				}
			}
			for _, name := range testNameRe.FindAllString(line, -1) {
				decl := strings.TrimSuffix("\nfunc "+name+"(", "*(") // `Name*`: any function with the prefix
				if !bytes.Contains(tests, []byte(decl)) {
					bad(strings.TrimSuffix(name, "*") + " is not a test, benchmark, fuzz or example function in the tree")
				}
			}
			for _, span := range codeSpanRe.FindAllString(line, -1) {
				for _, m := range goRefRe.FindAllStringSubmatch(span, -1) {
					if what := decls.resolve(m[1], m[2]); what != "" && !fenced {
						bad(what)
					}
				}
			}
		}
	}
	return problems
}

// goDecls holds, per package name, what internal/<pkg>'s non-test files
// declare: "Name" for a top-level declaration, "Type.Member" for a method
// or field. A package is parsed at its first reference; nil stands for a
// directory with no Go files, whose names are not Go references.
type goDecls struct {
	root string
	pkgs map[string]map[string]bool
}

// resolve returns why `pkg.ref` names nothing, or "" when it resolves or pkg
// is no package under internal/.
func (g goDecls) resolve(pkg, ref string) string {
	d, seen := g.pkgs[pkg]
	if !seen {
		var err error
		if d, err = parseDecls(filepath.Join(g.root, "internal", pkg)); err != nil {
			return fmt.Sprintf("internal/%s: %v", pkg, err)
		}
		g.pkgs[pkg] = d
	}
	if d == nil || d[ref] {
		return ""
	}
	return fmt.Sprintf("`%s.%s` is not declared in internal/%s", pkg, ref, pkg)
}

// parseDecls reads the declarations of dir's non-test .go files. An
// embedded field is named by its type; the members it promotes are not
// the embedding type's.
func parseDecls(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	decls := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					name = typeName(decl.Recv.List[0].Type) + "." + name
				}
				decls[name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						decls[typ] = true
						var fields []*ast.Field
						switch t := spec.Type.(type) {
						case *ast.StructType:
							fields = t.Fields.List
						case *ast.InterfaceType:
							fields = t.Methods.List
						}
						for _, field := range fields {
							if len(field.Names) == 0 {
								decls[typ+"."+typeName(field.Type)] = true
							}
							for _, n := range field.Names {
								decls[typ+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// typeName is the name of the named type x spells, through pointers, type
// arguments and a package qualifier.
func typeName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.SelectorExpr:
			x = t.Sel
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
