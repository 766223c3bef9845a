package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunStateAppliedInOnePlace walks the root module's non-test sources
// (the bench module has its own go.mod and is skipped) and asserts that
// the setters of process-global run state are called only from
// RunExperiments and experiments.Run: a run's config becomes process
// state in one place, for exactly the duration of the run. The process
// hub is read in one place too: telemetry.Hub only in the straight-line
// body of an exported experiment (never in a function literal, so never
// inside a sweep point, which is handed its hub), and no parallel.Point
// literal sets the bench-only Run.
func TestRunStateAppliedInOnePlace(t *testing.T) {
	setter := func(pkg, name string) bool {
		switch pkg {
		case "repro/internal/experiments":
			return strings.HasPrefix(name, "Set")
		case "repro/internal/sim":
			return name == "SetDefaultEventBudget"
		case "repro/internal/telemetry":
			return name == "WithDefault"
		}
		return false
	}
	allowed := map[string]bool{
		"repro/internal/service.RunExperiments": true,
		"repro/internal/experiments.Run":        true,
	}
	walkModule(t, func(fset *token.FileSet, pkg string, f *ast.File, imports map[string]string) {
		for _, decl := range f.Decls {
			owner := pkg + ".<var>"
			entry := false // an exported experiment may read the process hub
			if fn, ok := decl.(*ast.FuncDecl); ok {
				owner = pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					owner = pkg + ".<method>." + fn.Name.Name
				}
				entry = pkg == "repro/internal/experiments" && fn.Recv == nil && fn.Name.IsExported()
			}
			var lits []*ast.FuncLit                // enclosing the node being visited
			elided := map[*ast.CompositeLit]bool{} // Point literals inside a []Point{…}
			ast.Inspect(decl, func(n ast.Node) bool {
				for n != nil && len(lits) > 0 && n.Pos() >= lits[len(lits)-1].End() {
					lits = lits[:len(lits)-1]
				}
				if lit, ok := n.(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
				if lit, ok := n.(*ast.CompositeLit); ok {
					if at, ok := lit.Type.(*ast.ArrayType); ok && isPoint(at.Elt, pkg, imports) {
						for _, el := range lit.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								el = kv.Value
							}
							if el, ok := el.(*ast.CompositeLit); ok && el.Type == nil {
								elided[el] = true
							}
						}
					}
					for _, el := range lit.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Run" && (elided[lit] || isPoint(lit.Type, pkg, imports)) {
							t.Errorf("%s: a parallel.Point in %s sets Run; in-tree points set Body (Run is bench-only)",
								fset.Position(kv.Pos()), owner)
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, name := "", ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee, name = pkg, fun.Name
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok {
						callee, name = imports[x.Name], fun.Sel.Name
					}
				}
				if setter(callee, name) && !allowed[owner] {
					t.Errorf("%s: %s.%s called from %s; only RunExperiments and experiments.Run write process-global run state",
						fset.Position(call.Pos()), path.Base(callee), name, owner)
				}
				if callee == "repro/internal/telemetry" && name == "Hub" && (!entry || len(lits) > 0) {
					t.Errorf("%s: telemetry.Hub called from %s; only an exported experiment's own body reads the process hub, and hands it on",
						fset.Position(call.Pos()), owner)
				}
				return true
			})
		}
	})
}

// TestAppConstructorsReachable asserts that every exported constructor of
// internal/apps (a func New…) is named by at least one non-test file
// outside that package, so an application no binary runs cannot stay in
// the tree with only its own tests as callers.
func TestAppConstructorsReachable(t *testing.T) {
	const appsPkg = "repro/internal/apps"
	declared := map[string]string{} // constructor → position
	used := map[string]bool{}
	walkModule(t, func(fset *token.FileSet, pkg string, f *ast.File, imports map[string]string) {
		if pkg == appsPkg {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "New") {
					declared[fn.Name.Name] = fset.Position(fn.Pos()).String()
				}
			}
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] == appsPkg {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	if len(declared) == 0 {
		t.Fatalf("found no exported constructors in %s", appsPkg)
	}
	for name, pos := range declared {
		if !used[name] {
			t.Errorf("%s: apps.%s has no caller outside internal/apps and its tests; an application no binary runs is deleted", pos, name)
		}
	}
}

// walkModule parses the root module's non-test sources (the bench module
// has its own go.mod and is skipped, as are testdata and dot directories)
// and hands fn each file with its import path and its imports by local
// name.
func walkModule(t *testing.T, fn func(fset *token.FileSet, pkg string, f *ast.File, imports map[string]string)) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || de.Name() == "testdata" || strings.HasPrefix(de.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		fn(fset, path.Join("repro", filepath.ToSlash(rel)), f, imports)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d source files under %s; expected the whole module", files, root)
	}
}

// isPoint reports whether typ, written in pkg, names parallel.Point.
func isPoint(typ ast.Expr, pkg string, imports map[string]string) bool {
	switch x := typ.(type) {
	case *ast.Ident:
		return pkg == "repro/internal/parallel" && x.Name == "Point"
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && imports[id.Name] == "repro/internal/parallel" && x.Sel.Name == "Point"
	}
	return false
}
