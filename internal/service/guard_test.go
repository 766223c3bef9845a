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
// state in one place, for exactly the duration of the run.
func TestRunStateAppliedInOnePlace(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
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
		pkg := path.Join("repro", filepath.ToSlash(rel))
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.Decls {
			owner := pkg + ".<var>"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				owner = pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					owner = pkg + ".<method>." + fn.Name.Name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
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
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d source files under %s; expected the whole module", files, root)
	}
}
