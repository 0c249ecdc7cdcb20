// knobs_lint_test.go keeps README.md's Configuration section complete: every
// stems.Options and server.Config field, every server.QueryRequest JSON
// field and every flag of cmd/stemsd and cmd/stemsql must be named there,
// in the spelling the section's tables use. A knob nobody documents is a knob
// nobody audits; this is the test that fails when one is added quietly.
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

	var want []string // the tokens the section must contain, verbatim
	fields := func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			want = append(want, "`"+prefix+"."+typ.Field(i).Name+"`")
		}
	}
	fields("Options", reflect.TypeOf(Options{}))
	fields("Config", reflect.TypeOf(server.Config{}))
	req := reflect.TypeOf(server.QueryRequest{})
	for i := 0; i < req.NumField(); i++ {
		tag, _, _ := strings.Cut(req.Field(i).Tag.Get("json"), ",")
		want = append(want, "`\""+tag+"\"`")
	}
	for _, w := range want {
		if !strings.Contains(section, w) {
			t.Errorf("README.md Configuration section does not mention %s", w)
		}
	}

	flags := 0
	for _, cmd := range []string{"stemsd", "stemsql"} {
		for _, name := range flagNames(t, filepath.Join("cmd", cmd)) {
			flags++
			// `stemsd -name` or `stemsd -name <value placeholder>`.
			re := regexp.MustCompile("`" + cmd + " -" + regexp.QuoteMeta(name) + "[` ]")
			if !re.MatchString(section) {
				t.Errorf("README.md Configuration section does not mention `%s -%s`", cmd, name)
			}
		}
	}
	if len(want) < 40 || flags < 40 {
		t.Fatalf("collected only %d fields and %d flags; is the lint looking at the right types and directories?", len(want), flags)
	}
}
