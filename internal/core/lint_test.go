// lint_test.go keeps this package the only query→router→engine assembly: it
// parses every non-test Go file in the module and fails if one outside the
// packages allowed to drive the engines directly constructs a router or an
// engine. The facade, the CLIs and the server must go through
// Build. Further checks keep the commands' catalogs unpaced, the serving
// binary's import closure off the paper-figure / reference packages, the
// engine and shared SteM state off the file system, the engine's
// configuration structs free of fields nothing shipped sets, the fields SteM
// sharding left for the benchmark harness unused, and the engine's coalescing
// cap inside the engine.
package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// constructors are the calls only an assembly makes, by import path.
var constructors = map[string][]string{
	"repro/internal/eddy": {"NewRouter", "NewConcurrent", "NewSim"},
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
		// The names this file knows the listed packages by.
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

// TestSharedStateTouchesNoDisk pins that query execution is memory and
// nothing else: no non-test file of the engine packages, nor the server's
// owner of shared SteM state, imports a package that could open, read or
// name a file. The engine owns no rows — the catalog does — so it has no
// state worth moving to disk.
func TestSharedStateTouchesNoDisk(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{filepath.Join(root, "internal", "server", "sharedstems.go")}
	for _, dir := range []string{"stem", "eddy", "core"} {
		matches, err := filepath.Glob(filepath.Join(root, "internal", dir, "*.go"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", dir, err)
		}
		for _, path := range matches {
			if !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
		}
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch ipath, _ := strconv.Unquote(imp.Path.Value); ipath {
			case "os", "io", "io/fs", "path/filepath":
				t.Errorf("%s imports %q: query execution must not touch the file system", filepath.ToSlash(file), ipath)
			}
		}
	}
}

// TestShardsStaysDead keeps the two fields SteM sharding left behind —
// eddy.Options.Shards and stem.SharedConfig.Shards, which only the frozen
// benchmark harness still sets — from turning back into a knob: no non-test
// Go file outside bench/ may read or set anything named Shards, as a selector
// or as a composite-literal key. It keeps eddy.Concurrent.BatchSize, the
// engine's coalescing cap, from becoming one again the same way: nothing named
// BatchSize outside internal/eddy and bench/.
func TestShardsStaysDead(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if (strings.HasPrefix(d.Name(), ".") && path != root) || rel == "bench" {
				return filepath.SkipDir
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
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				id = n.Sel
			case *ast.KeyValueExpr:
				id, _ = n.Key.(*ast.Ident)
			}
			switch {
			case id == nil:
			case id.Name == "Shards":
				t.Errorf("%s: uses a field named Shards; SteMs have no shards (the field is kept only for the benchmark harness)", fset.Position(id.Pos()))
			case id.Name == "BatchSize" && !strings.HasPrefix(rel, "internal/eddy/"):
				t.Errorf("%s: uses a field named BatchSize; the coalescing cap is the engine's own, not a knob", fset.Position(id.Pos()))
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

// configStructs are the engine's configuration surfaces: package directory
// → struct name.
var configStructs = map[string]string{
	"internal/eddy": "Options",
	"internal/stem": "Config",
	"internal/am":   "Config",
	"internal/core": "Spec",
}

// TestEveryConfigFieldHasAShippedSetter keeps test-only configuration from
// growing back: every field of the structs above must be given a value —
// as a composite-literal key or by selector assignment — in at least one
// non-test Go file outside the struct's own package. Two kinds of setter do
// not count: one that writes the zero literal, and one that only forwards
// another listed field that itself has no setter (eddy.Options.X copied into
// stem.Config.X is one knob, not two). The check is syntactic: in a file
// that imports the struct's package, any assignment to a selector named like
// one of its fields is taken to be that field.
func TestEveryConfigFieldHasAShippedSetter(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()

	type field struct{ dir, name string }
	fields := map[string][]string{} // package dir → its struct's field names
	byName := map[string][]field{}  // field name → the listed fields called that
	for dir, name := range configStructs {
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					return true
				}
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, id := range f.Names {
						fields[dir] = append(fields[dir], id.Name)
						byName[id.Name] = append(byName[id.Name], field{dir, id.Name})
					}
				}
				return false
			})
		}
		if len(fields[dir]) == 0 {
			t.Fatalf("%s: struct %s not found", dir, name)
		}
	}

	// setters[f] lists, per setter site of f, the listed-field names its
	// right-hand side reads.
	setters := map[field][][]string{}
	record := func(f field, rhs ast.Expr) {
		if lit, ok := rhs.(*ast.BasicLit); ok && (lit.Value == "0" || lit.Value == `""`) {
			return
		}
		if id, ok := rhs.(*ast.Ident); ok && (id.Name == "nil" || id.Name == "false") {
			return
		}
		reads := []string{}
		ast.Inspect(rhs, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && byName[sel.Sel.Name] != nil {
				reads = append(reads, sel.Sel.Name)
			}
			return true
		})
		setters[f] = append(setters[f], reads)
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := map[string]string{} // the name this file knows a listed package by → its dir
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			pdir, ok := strings.CutPrefix(ipath, "repro/")
			if !ok || fields[pdir] == nil || pdir == dir {
				continue
			}
			name := pdir[strings.LastIndex(pdir, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = pdir
		}
		if len(local) == 0 {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || local[pkg.Name] == "" || configStructs[local[pkg.Name]] != sel.Sel.Name {
					return true
				}
				pdir := local[pkg.Name]
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						record(field{pdir, kv.Key.(*ast.Ident).Name}, kv.Value)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					for _, pdir := range local {
						if slices.Contains(fields[pdir], sel.Sel.Name) {
							record(field{pdir, sel.Sel.Name}, rhs)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A field is set once some site of it reads only fields that are set.
	set := map[field]bool{}
	for grew := true; grew; {
		grew = false
		for f, sites := range setters {
			if set[f] {
				continue
			}
			for _, reads := range sites {
				// A read blocks the site while every other listed field of
				// that name is unset. (A same-named read with no other listed
				// field behind it — stem.Config.PerMatchCost from a Profile's
				// PerMatchCost — is some unlisted struct's.)
				if !slices.ContainsFunc(reads, func(name string) bool {
					others := slices.DeleteFunc(slices.Clone(byName[name]), func(g field) bool { return g == f })
					return len(others) > 0 && !slices.ContainsFunc(others, func(g field) bool { return set[g] })
				}) {
					set[f], grew = true, true
					break
				}
			}
		}
	}
	for dir, names := range fields {
		for _, name := range names {
			if !set[field{dir, name}] {
				t.Errorf("%s: %s.%s is set by no shipped code outside its package: delete it, or make it a constant",
					dir, configStructs[dir], name)
			}
		}
	}
}
