// lint_test.go keeps this package the only query→router→engine assembly: it
// parses every non-test Go file in the module and fails if one outside the
// packages allowed to drive the engines directly constructs a router or an
// engine. The facade, the CLIs and the server must go through
// Build. Further checks keep the commands' catalogs unpaced, the serving
// binary's import closure off the paper-figure / reference packages, the
// engine and shared SteM state off the file system, the engine's
// configuration structs free of fields nothing shipped sets, the names kept
// only for the benchmark harness unused, and every declared function linked
// into some shipped binary.
package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
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

// harnessShims are the names kept only because the frozen benchmark harness
// still reads or sets them: the fields SteM sharding left behind
// (eddy.Options.Shards, stem.SharedConfig.Shards), the ignored coalescing cap
// eddy.Concurrent.BatchSize, and eddy.DefaultBatchSize, the harness's own
// batch size.
var harnessShims = map[string]bool{"Shards": true, "BatchSize": true, "DefaultBatchSize": true}

// TestHarnessShimsStayDead keeps the harness shims from turning back into
// knobs: no non-test Go file outside bench/ may use anything so named — as a
// selector, a composite-literal key or a bare identifier — beyond declaring
// it.
func TestHarnessShimsStayDead(t *testing.T) {
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
		declared := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && harnessShims[id.Name] && !declared[id] {
				t.Errorf("%s: uses %s, which is kept only for the benchmark harness, not as a knob", fset.Position(id.Pos()), id.Name)
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

// reachAllowlist names the functions no shipped binary links that stay
// anyway, each with its reason. A key is a path.Match pattern over
// "dir.Func" or "dir.Type.Method"; the root package's dir is "repro".
var reachAllowlist = map[string]string{
	"internal/oracle.*":          "the brute-force reference every engine test compares against",
	"internal/policy.*Random*":   "the ablation floor the routing property tests measure the policies against",
	"internal/sql.*.isStatement": "the markers that seal the sql.Statement interface; never called by design",
}

// shippedBinaries are the packages whose binaries the repository ships: the
// commands, the examples and the benchmark harness.
var shippedBinaries = []string{"./cmd/...", "./examples/...", "./bench"}

// TestEveryFunctionReachesABinary asks the linker which functions declared
// in non-test Go files outside bench/ survive dead-code elimination in some
// shipped binary, and fails on any that survives in none and is not on the
// allowlist. Inlining is off for the build, so a function that is only ever
// inlined still shows. The linker keeps every method of a type converted to
// an interface, so this finds unreached functions, not unreached interface
// methods.
func TestEveryFunctionReachesABinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every shipped binary")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build the shipped binaries: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	build := exec.Command(goCmd, append([]string{"build", "-gcflags=all=-l", "-o", out + string(filepath.Separator)}, shippedBinaries...)...)
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}

	// The text symbols of bench's binary and of the others, type arguments
	// stripped, a command's own functions qualified by its binary's name:
	// "repro/internal/eddy.(*Router).Reset", "stemsd:main.run".
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	linked, benchLinked := map[string]bool{}, map[string]bool{}
	for _, bin := range bins {
		nm, err := exec.Command(goCmd, "tool", "nm", filepath.Join(out, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		syms := linked
		if bin.Name() == "bench" {
			syms = benchLinked
		}
		for _, line := range strings.Split(string(nm), "\n") {
			// address, kind, name; a generic's type arguments may hold spaces
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				name := strings.Join(f[2:], " ")
				if strings.HasPrefix(name, "main.") {
					name = bin.Name() + ":" + name
				}
				syms[stripTypeArgs(name)] = true
			}
		}
	}
	if len(bins) < 5 || len(benchLinked) == 0 {
		t.Fatalf("built %d binaries, want the commands, the examples and bench", len(bins))
	}

	type fn struct {
		key   string
		lines int
	}
	var unreached, benchOnly []fn
	decls, unreachedLines, allowed := 0, 0, 0
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, pkg := filepath.ToSlash(filepath.Dir(rel)), "repro/"+filepath.ToSlash(filepath.Dir(rel))
		switch {
		case dir == ".":
			dir, pkg = "repro", "repro"
		case f.Name.Name == "main":
			pkg = filepath.Base(dir) + ":main"
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
				continue
			}
			decls++
			sym, recv := funcSymbol(fd)
			key := dir + "." + fd.Name.Name
			if recv != "" {
				key = dir + "." + recv + "." + fd.Name.Name
			}
			u := fn{key, fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1}
			switch {
			case linked[pkg+"."+sym]:
			case benchLinked[pkg+"."+sym]:
				benchOnly = append(benchOnly, u)
			default:
				unreached = append(unreached, u)
				unreachedLines += u.lines
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if decls < 500 {
		t.Fatalf("parsed only %d function declarations; is the walk rooted at the module?", decls)
	}
	allowlisted := func(key string) bool {
		for pat := range reachAllowlist {
			if ok, _ := path.Match(pat, key); ok {
				return true
			}
		}
		return false
	}
	for _, u := range unreached {
		if allowlisted(u.key) {
			allowed++
			continue
		}
		t.Errorf("%s (%d lines) reaches no shipped binary: delete it, move it into a _test.go file, or allowlist it with a reason", u.key, u.lines)
	}
	t.Logf("reachability: %d functions outside bench/, %d reach no shipped binary (%d lines), %d of them allowlisted; %d reached only by ./bench",
		decls, len(unreached), unreachedLines, allowed, len(benchOnly))
	for _, b := range benchOnly {
		t.Logf("reached only by ./bench: %s (%d lines)", b.key, b.lines)
	}
}

// funcSymbol returns the linker's name for fd within its package —
// "Name", "T.Name" or "(*T).Name" — and its receiver's type name, if any.
func funcSymbol(fd *ast.FuncDecl) (sym, recv string) {
	if fd.Recv == nil {
		return fd.Name.Name, ""
	}
	e, ptr := fd.Recv.List[0].Type, false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) { // a generic type's receiver names its parameters
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	recv = e.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fd.Name.Name, recv
	}
	return recv + "." + fd.Name.Name, recv
}

// stripTypeArgs drops the bracketed type arguments from a generic
// function's or type's symbol.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
