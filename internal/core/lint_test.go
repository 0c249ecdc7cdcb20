// lint_test.go keeps this package the only query→router→engine assembly: it
// parses every non-test Go file in the module and fails if one outside the
// packages allowed to drive the engines directly constructs a router, an
// engine or a governor. The facade, the CLIs and the server must go through
// Build. Two more checks keep the commands' catalogs unpaced and the serving
// binary's import closure off the paper-figure / reference packages.
package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// constructors are the calls only an assembly makes, by import path.
var constructors = map[string][]string{
	"repro/internal/eddy": {"NewRouter", "NewConcurrent", "NewSim"},
	"repro/internal/stem": {"NewSpillGovernor", "NewGovernor"},
}

// assemblers may call them: this package; the engines' own package; the
// experiment harness and the baseline executors, which also run non-SteM
// architectures over eddy.Routing; and the benchmark, which times each
// layer separately.
var assemblers = []string{"internal/core", "internal/eddy", "internal/experiments", "internal/exec", "bench"}

func TestOnlyCoreAssembles(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			for _, a := range assemblers {
				if rel == a {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		// The names this file knows the two packages by.
		banned := map[string][]string{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if names, ok := constructors[ipath]; ok {
				local := ipath[strings.LastIndex(ipath, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				banned[local] = names
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, name := range banned[pkg.Name] {
				if sel.Sel.Name == name {
					t.Errorf("%s: calls %s.%s — build a core.Spec and call core.Build instead",
						fset.Position(call.Pos()), pkg.Name, name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files; is the walk rooted at the module?", files)
	}
}

// TestCommandsBuildUnpacedCatalogs keeps the simulator's time model out of
// the two commands: a registered CSV is local data, so cmd/stemsd and
// cmd/stemsql must build their catalogs with no scan pacing — the literal 0
// as server.NewCatalog's first argument, not a flag or a variable. (Pacing
// every row keeps the engine on its goroutine-per-row path; a slow remote
// source is declared with INDEX … LATENCY instead.)
func TestCommandsBuildUnpacedCatalogs(t *testing.T) {
	fset := token.NewFileSet()
	for _, cmd := range []string{"stemsd", "stemsql"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "cmd", cmd, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("cmd/%s: no Go files (%v)", cmd, err)
		}
		calls := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewCatalog" || len(call.Args) == 0 {
					return true
				}
				calls++
				if lit, ok := call.Args[0].(*ast.BasicLit); !ok || lit.Kind != token.INT || lit.Value != "0" {
					t.Errorf("%s: NewCatalog's scan interval must be the literal 0", fset.Position(call.Pos()))
				}
				return true
			})
		}
		if calls == 0 {
			t.Errorf("cmd/%s never calls server.NewCatalog; is the lint looking at the right directory?", cmd)
		}
	}
}

// figurePath are the packages that exist to regenerate the paper's figures
// or to check the engine against a reference (ARCHITECTURE.md, layer map);
// nothing a served query executes may reach them.
var figurePath = []string{"internal/experiments", "internal/exec", "internal/join",
	"internal/workload", "internal/stats", "internal/oracle"}

// TestServingPathAvoidsFigurePath walks cmd/stemsd's import closure inside
// the module and fails if it reaches a paper-figure / reference package.
func TestServingPathAvoidsFigurePath(t *testing.T) {
	const module = "repro/"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	via := map[string]string{"cmd/stemsd": ""} // package dir → who imported it
	for queue := []string{"cmd/stemsd"}; len(queue) > 0; queue = queue[1:] {
		dir := queue[0]
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				dep, ok := strings.CutPrefix(ipath, module)
				if _, seen := via[dep]; !ok || seen {
					continue
				}
				via[dep] = dir
				queue = append(queue, dep)
			}
		}
	}
	for _, pkg := range figurePath {
		if from, reached := via[pkg]; reached {
			t.Errorf("cmd/stemsd reaches %s (imported by %s): the serving path must not depend on the paper-figure path", pkg, from)
		}
	}
	if _, ok := via["internal/eddy"]; !ok || len(via) < 10 {
		t.Fatalf("import closure has %d packages and no internal/eddy; is the walk rooted at the module?", len(via))
	}
}

// TestSharedStateTouchesNoDisk pins that catalog-owned shared SteM state is
// memory and nothing else: neither the state nor its owner imports a package
// that could open, read or name a file. (A join too big to keep resident is
// the per-query governor's job — stem/spill.go — which a shared state never
// meets: governed queries run on private SteMs.)
func TestSharedStateTouchesNoDisk(t *testing.T) {
	for _, file := range []string{"internal/stem/shared.go", "internal/server/sharedstems.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", file), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch ipath, _ := strconv.Unquote(imp.Path.Value); ipath {
			case "os", "io", "path/filepath":
				t.Errorf("%s imports %q: shared SteM state must not touch the file system", file, ipath)
			}
		}
	}
}
