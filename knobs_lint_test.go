// knobs_lint_test.go keeps README.md's Configuration section complete: every
// stems.Options and server.Config field, every server.QueryRequest JSON
// field and every flag of cmd/stemsd and cmd/stemsql must be named there,
// in the spelling the section's tables use. A knob nobody documents is a knob
// nobody audits; this is the test that fails when one is added quietly. Run
// with -v it also logs how many there are of each kind, which CI copies into
// the job summary beside the line count.
package stems

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// flagNames parses one command's source and returns the name of every flag
// it defines through the standard flag package (flag.String, flag.Var, …):
// the first string literal among the call's arguments.
func flagNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
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
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names = append(names, name)
					break
				}
			}
			return true
		})
	}
	return names
}

func TestReadmeDocumentsEveryKnob(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Configuration\n")
	if !ok {
		t.Fatal("README.md has no Configuration section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	var want []string   // the tokens the section must contain, verbatim
	var counts []string // "name n" per struct and flag set, logged for CI's job summary
	count := func(name string, n int) { counts = append(counts, name+" "+strconv.Itoa(n)) }
	fields := func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			want = append(want, "`"+prefix+"."+typ.Field(i).Name+"`")
		}
		count(typ.String(), typ.NumField())
	}
	fields("Options", reflect.TypeOf(Options{}))
	fields("Config", reflect.TypeOf(server.Config{}))
	req := reflect.TypeOf(server.QueryRequest{})
	for i := 0; i < req.NumField(); i++ {
		tag, _, _ := strings.Cut(req.Field(i).Tag.Get("json"), ",")
		want = append(want, "`\""+tag+"\"`")
	}
	count(req.String(), req.NumField())
	// core.Spec is what the three front ends translate their options into; it
	// has no README row of its own, but it is counted with them.
	count("core.Spec", reflect.TypeOf(core.Spec{}).NumField())
	for _, w := range want {
		if !strings.Contains(section, w) {
			t.Errorf("README.md Configuration section does not mention %s", w)
		}
	}

	flags := 0
	for _, cmd := range []string{"stemsd", "stemsql"} {
		names := flagNames(t, filepath.Join("cmd", cmd))
		count(cmd+" flags", len(names))
		for _, name := range names {
			flags++
			// `stemsd -name` or `stemsd -name <value placeholder>`.
			re := regexp.MustCompile("`" + cmd + " -" + regexp.QuoteMeta(name) + "[` ]")
			if !re.MatchString(section) {
				t.Errorf("README.md Configuration section does not mention `%s -%s`", cmd, name)
			}
		}
	}
	t.Log("independently settable values: " + strings.Join(counts, ", "))
	if len(want) < 30 || flags < 30 {
		t.Fatalf("collected only %d fields and %d flags; is the lint looking at the right types and directories?", len(want), flags)
	}
}
