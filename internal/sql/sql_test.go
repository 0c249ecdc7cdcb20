package sql

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

func row(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func testCatalog(t *testing.T) MapCatalog {
	t.Helper()
	rT := schema.MustTable("r", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("s", schema.IntCol("x"), schema.IntCol("y"))
	scan := source.ScanSpec{InterArrival: clock.Millisecond}
	return MapCatalog{
		"r": {
			Data: source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20), row(3, 10)}),
			Scan: &scan,
		},
		"s": {
			Data:    source.MustTable(sT, []tuple.Row{row(10, 100), row(20, 200)}),
			Scan:    &scan,
			Indexes: []source.IndexSpec{{KeyCols: []int{0}, Latency: clock.Millisecond}},
		},
	}
}

// --- lexer ---

// scanAll pulls every token of src, end of input included.
func scanAll(src string) ([]token, error) {
	var toks []token
	for off := 0; ; {
		tk, next, err := scan(src, off)
		if err != nil {
			return nil, err
		}
		toks = append(toks, tk)
		if tk.kind == tokEOF {
			return toks, nil
		}
		off = next
	}
}

func TestLexBasics(t *testing.T) {
	const src = "select r.a, x FROM r WHERE a <= -5 AND name = 'it''s' AND b = 'plain'"
	toks, err := scanAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "SELECT" || toks[0].kind != tokKeyword {
		t.Error("keyword not recognized")
	}
	// Find the string literal with the escaped quote.
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Error("escaped string quote not handled")
	}
	// Negative number.
	neg := false
	for _, tk := range toks {
		if tk.kind == tokNumber && tk.text == "-5" && tk.num == -5 {
			neg = true
		}
	}
	if !neg {
		t.Error("negative number not lexed")
	}
	// A literal without '' escapes is a slice of the source, not a copy.
	if tk := toks[len(toks)-2]; tk.kind != tokString || tk.text != "plain" || !within(tk.text, src) {
		t.Errorf("plain literal %+v is not a slice of the source", tk)
	}
}

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(src))
}

func TestLexErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"SELECT @", "position 7: unexpected '@'"},
		{"SELECT 'open", "position 7: unterminated string"},
		{"a ! b", "position 2: unexpected '!'"},
		{"a - b", "position 2: unexpected '-'"},
		{"SELECT a FROM t LIMIT 9223372036854775808", "position 22: integer out of range"},
		{"INSERT INTO t VALUES (-9223372036854775809)", "position 22: integer out of range"},
		{"SELECT a FROM t WHERE a = 99999999999999999999", "position 26: integer out of range"},
		{"SELECT a\xff FROM t", "position 8: invalid UTF-8"},
		{"SELECT \xc3 FROM t", "position 7: invalid UTF-8"},
		{"SELECT a © b", "position 9: unexpected '©'"},
	}
	for _, c := range cases {
		_, err := scanAll(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: lex error = %v, want %q", c.src, err, c.want)
		}
	}
}

// --- parser ---

func TestParseStar(t *testing.T) {
	st, err := Parse("SELECT * FROM r, s WHERE r.a = s.x")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Star || len(st.From) != 2 || len(st.Where) != 1 {
		t.Errorf("parsed %+v", st)
	}
}

func TestParseSelectListAndAliases(t *testing.T) {
	st, err := Parse("select r1.key, r2.key from r as r1, r r2 where r1.a = r2.a and r1.key <> r2.key")
	if err != nil {
		t.Fatal(err)
	}
	if st.Star || len(st.Select) != 2 {
		t.Errorf("select list = %v", st.Select)
	}
	if st.From[0].Alias != "r1" || st.From[1].Alias != "r2" || st.From[1].Source != "r" {
		t.Errorf("from = %v", st.From)
	}
	if len(st.Where) != 2 || st.Where[1].Op != "<>" {
		t.Errorf("where = %v", st.Where)
	}
}

func TestParseOperandKinds(t *testing.T) {
	st, err := Parse("SELECT * FROM r WHERE a >= 10 AND 3 < key AND name = 'bob'")
	if err != nil {
		t.Fatal(err)
	}
	if st.Where[0].Right.Kind != OpInt || st.Where[1].Left.Kind != OpInt || st.Where[2].Right.Kind != OpStr {
		t.Errorf("operand kinds wrong: %+v", st.Where)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"FROM r",
		"SELECT FROM r",
		"SELECT * FROM",
		"SELECT * FROM r WHERE",
		"SELECT * FROM r WHERE a =",
		"SELECT * FROM r extra garbage =",
		"SELECT a. FROM r",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: want parse error", src)
		}
	}
}

// --- binder ---

func TestBindStarJoin(t *testing.T) {
	st, err := Parse("SELECT * FROM r, s WHERE r.a = s.x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if b.Q.NumTables() != 2 || len(b.Q.Preds) != 1 || len(b.Output) != 4 {
		t.Errorf("bound: tables=%d preds=%d out=%d", b.Q.NumTables(), len(b.Q.Preds), len(b.Output))
	}
	if b.Output[2].Name != "s.x" {
		t.Errorf("output[2] = %v", b.Output[2])
	}
}

func TestBindUnqualifiedColumns(t *testing.T) {
	st, _ := Parse("SELECT key FROM r, s WHERE a = x")
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if b.Output[0].Table != 0 || b.Output[0].Col != 0 {
		t.Errorf("unqualified key resolved to %+v", b.Output[0])
	}
	p := b.Q.Preds[0]
	if !p.IsJoin() {
		t.Error("a = x must bind as a join")
	}
}

func TestBindConstNormalization(t *testing.T) {
	st, _ := Parse("SELECT * FROM r WHERE 2 <= key")
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	p := b.Q.Preds[0]
	if p.IsJoin() || p.Op.String() != ">=" {
		t.Errorf("normalized pred = %v", p)
	}
}

func TestBindErrors(t *testing.T) {
	cases := []string{
		"SELECT * FROM nosuch",
		"SELECT * FROM r, r",                   // duplicate alias
		"SELECT * FROM r, s WHERE key = 1",     // ambiguous? key only in r... use x
		"SELECT * FROM r WHERE nocol = 1",      // unknown column
		"SELECT * FROM r, s WHERE r.a = r.key", // single-table comparison of two cols
		"SELECT * FROM r WHERE 1 = 2",          // const vs const
		"SELECT z.a FROM r",                    // unknown alias
		"SELECT * FROM r, s",                   // cross product (engine validation)
	}
	for _, src := range cases {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: parse: %v", src, err)
		}
		if _, err := Bind(st, testCatalog(t)); err == nil && src != cases[2] {
			t.Errorf("%q: want bind error", src)
		}
	}
	// Ambiguity check with a genuinely shared column name.
	cat := testCatalog(t)
	rr := cat["r"]
	cat["s2"] = rr // same schema under another name: column "a" ambiguous
	st, _ := Parse("SELECT * FROM r, s2 WHERE a = 1")
	if _, err := Bind(st, cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
}

// TestSelfJoinEndToEnd parses, binds and executes a self-join — the FROM
// clause feature Section 2.2 calls out ("multiple instances of the source
// in the FROM clause, e.g. a self-join").
func TestSelfJoinEndToEnd(t *testing.T) {
	st, err := Parse("SELECT r1.key, r2.key FROM r AS r1, r AS r2 WHERE r1.a = r2.a AND r1.key < r2.key")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eddy.NewRouter(b.Q, eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eddy.NewSim(r).Run()
	if err != nil {
		t.Fatal(err)
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	want := oracle.Compute(b.Q)
	missing, extra := oracle.Diff(want, got)
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("self-join wrong: missing=%v extra=%v", missing, extra)
	}
	// rows with a=10: keys {1,3} -> exactly one pair (1,3).
	if len(outs) != 1 {
		t.Errorf("self-join produced %d rows, want 1", len(outs))
	}
}

// TestOrderByLimit parses, binds and arranges ORDER BY / LIMIT — applied
// above the eddy, since the adaptive dataflow is inherently unordered.
func TestOrderByLimit(t *testing.T) {
	st, err := Parse("SELECT key FROM r ORDER BY a DESC, key ASC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc || st.Limit != 2 {
		t.Fatalf("parsed order/limit = %+v / %d", st.OrderBy, st.Limit)
	}
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eddy.NewRouter(b.Q, eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eddy.NewSim(r).Run()
	if err != nil {
		t.Fatal(err)
	}
	var ts []*tuple.Tuple
	for _, o := range outs {
		ts = append(ts, o.T)
	}
	got := b.Arrange(ts)
	// r rows: (1,10),(2,20),(3,10). ORDER BY a DESC, key ASC LIMIT 2 →
	// key 2 (a=20), then key 1 (a=10).
	if len(got) != 2 {
		t.Fatalf("arranged %d rows, want 2", len(got))
	}
	if got[0].Value(0, 0).I != 2 || got[1].Value(0, 0).I != 1 {
		t.Errorf("order = %v, %v", got[0], got[1])
	}
}

func TestParseOrderLimitErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM r ORDER key",
		"SELECT * FROM r LIMIT",
		"SELECT * FROM r LIMIT -1",
		"SELECT * FROM r ORDER BY",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: want parse error", src)
		}
	}
	// Unknown order column fails at bind time.
	st, _ := Parse("SELECT * FROM r ORDER BY nope")
	if _, err := Bind(st, testCatalog(t)); err == nil {
		t.Error("unknown ORDER BY column must fail to bind")
	}
}

// TestIndexedSourceEndToEnd executes a bound query whose S side is served by
// both the scan and the declared index.
func TestIndexedSourceEndToEnd(t *testing.T) {
	st, _ := Parse("SELECT y FROM r, s WHERE r.a = s.x AND r.key <= 2")
	b, err := Bind(st, testCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eddy.NewRouter(b.Q, eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := eddy.NewSim(r).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Errorf("got %d rows, want 2", len(outs))
	}
}

// --- parse-error positions (satellite: errors report byte offsets) ---

// TestParseErrorPositions checks that malformed statements report the byte
// offset of the offending token. Statements are single-line, so the offset
// doubles as the 0-based column.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error, including "position N"
	}{
		{"unterminated string", "SELECT * FROM r WHERE name = 'oops", "position 29: unterminated string"},
		{"dangling AND", "SELECT * FROM r WHERE a = 1 AND", "position 31: expected operand"},
		{"unknown keyword", "SELEC * FROM r", "position 0: expected SELECT"},
		{"misspelled FROM", "SELECT * FORM r", "position 9: expected FROM"},
		{"stray rune", "SELECT * FROM r WHERE a = $", "position 26: unexpected"},
		{"missing operand", "SELECT * FROM r WHERE = 1", "position 22: expected operand"},
		{"trailing garbage", "SELECT * FROM r WHERE a = 1 1", "position 28: unexpected"},
		{"dot without column", "SELECT a. FROM r", "position 10: expected column name"},
		{"negative limit", "SELECT * FROM r LIMIT -3", "position 22: negative LIMIT"},
		{"register missing TABLE", "REGISTER people FROM 'p.csv'", "position 9: expected TABLE"},
		{"register unquoted path", "REGISTER TABLE p FROM p.csv", "position 22: expected quoted CSV path"},
		{"register unitless latency", "REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY 200", "position 47: duration 200 needs a unit"},
		{"register bad duration", "REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY 'soon'", "bad duration \"soon\""},
		{"register negative latency", "REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY -50ms", "bad duration \"-50ms\""},
		{"register negative quoted latency", "REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY '-1s'", "bad duration \"-1s\""},
		{"register missing LATENCY", "REGISTER TABLE p FROM 'p.csv' INDEX id 200ms", "position 39: expected LATENCY"},
		{"prepare missing name", "PREPARE AS SELECT * FROM r", "position 8: expected prepared statement name"},
		{"prepare missing AS", "PREPARE p SELECT * FROM r", "position 10: expected AS"},
		{"prepare missing body", "PREPARE p AS", "position 12: expected SELECT"},
		{"prepare of register", "PREPARE p AS REGISTER TABLE t FROM 't.csv'", "position 13: cannot prepare a REGISTER statement"},
		{"prepare of execute", "PREPARE p AS EXECUTE q", "position 13: expected SELECT"},
		{"execute missing name", "EXECUTE", "position 7: expected prepared statement name"},
		{"execute quoted name", "EXECUTE 'p'", "position 8: expected prepared statement name"},
		{"execute trailing garbage", "EXECUTE p extra", "position 10: unexpected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseStatement(c.src)
			if err == nil {
				t.Fatalf("%q: want parse error", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q:\n  error = %v\n  want substring %q", c.src, err, c.want)
			}
		})
	}
}

// --- REGISTER TABLE ---

func TestParseRegister(t *testing.T) {
	st, err := ParseStatement("REGISTER TABLE people FROM 'data/people.csv'")
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := st.(*RegisterStmt)
	if !ok {
		t.Fatalf("parsed %T, want *RegisterStmt", st)
	}
	if reg.Name != "people" || reg.Path != "data/people.csv" || len(reg.Indexes) != 0 {
		t.Errorf("parsed %+v", reg)
	}
}

func TestParseRegisterIndexes(t *testing.T) {
	st, err := ParseStatement("register table t from 'x.csv' index id latency 200ms index name latency '1s'")
	if err != nil {
		t.Fatal(err)
	}
	reg := st.(*RegisterStmt)
	if len(reg.Indexes) != 2 {
		t.Fatalf("indexes = %+v", reg.Indexes)
	}
	if reg.Indexes[0].Col != "id" || reg.Indexes[0].Latency != 200*time.Millisecond {
		t.Errorf("index[0] = %+v", reg.Indexes[0])
	}
	if reg.Indexes[1].Col != "name" || reg.Indexes[1].Latency != time.Second {
		t.Errorf("index[1] = %+v", reg.Indexes[1])
	}
}

// TestContextualWordsStayIdentifiers: REGISTER's TABLE/INDEX/LATENCY words
// must not become reserved — they are valid table and column names in a
// SELECT.
func TestContextualWordsStayIdentifiers(t *testing.T) {
	st, err := Parse("SELECT index, latency FROM register WHERE table_ = 1 AND index >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 2 || st.Select[0].Col != "index" || st.From[0].Source != "register" {
		t.Errorf("parsed %+v", st)
	}
}

// TestParseRejectsRegister: the SELECT-only entry point refuses a REGISTER
// statement instead of misparsing it.
func TestParseRejectsRegister(t *testing.T) {
	if _, err := Parse("REGISTER TABLE p FROM 'p.csv'"); err == nil {
		t.Fatal("Parse must reject REGISTER statements")
	}
}

// --- INSERT INTO ---

func TestParseInsert(t *testing.T) {
	st, err := ParseStatement("insert into t values (1, 'it''s'), (-2, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := st.(*InsertStmt)
	if !ok {
		t.Fatalf("parsed %T, want *InsertStmt", st)
	}
	if ins.Table != "t" || len(ins.Rows) != 2 {
		t.Fatalf("parsed %+v", ins)
	}
	r0, r1 := ins.Rows[0], ins.Rows[1]
	if r0[0].K != value.Int || r0[0].I != 1 || r0[1].K != value.Str || r0[1].S != "it's" {
		t.Errorf("row 0 = %+v", r0)
	}
	if r1[0].K != value.Int || r1[0].I != -2 || !r1[1].IsNull() {
		t.Errorf("row 1 = %+v", r1)
	}
	rows := ins.RowValues()
	if len(rows) != 2 || rows[0][0].I != 1 || rows[0][1].S != "it's" || !rows[1][1].IsNull() {
		t.Errorf("RowValues = %v", rows)
	}
}

// TestInsertWordsStayIdentifiers: INSERT/INTO/VALUES/NULL must not become
// reserved — they are valid table and column names in a SELECT.
func TestInsertWordsStayIdentifiers(t *testing.T) {
	st, err := Parse("SELECT insert, null FROM values WHERE into.null = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 2 || st.Select[0].Col != "insert" || st.From[0].Source != "values" {
		t.Errorf("parsed %+v", st)
	}
}

// TestParseInsertErrors pins the byte offsets of malformed INSERTs, the same
// way TestParseErrorPositions does for the other statement kinds.
func TestParseInsertErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing INTO", "INSERT t VALUES (1)", "position 7: expected INTO"},
		{"missing table", "INSERT INTO VALUES (1)", "position 19: expected VALUES"},
		{"missing VALUES", "INSERT INTO t (1, 2)", "position 14: expected VALUES"},
		{"missing rows", "INSERT INTO t VALUES", "position 20: expected '('"},
		{"empty row", "INSERT INTO t VALUES ()", "position 22: expected literal value"},
		{"trailing comma", "INSERT INTO t VALUES (1,)", "position 24: expected literal value"},
		{"column ref", "INSERT INTO t VALUES (a)", "position 22: expected literal value"},
		{"ragged rows", "INSERT INTO t VALUES (1), (2, 3)", "position 31: VALUES row 2 has 2 values, want 1"},
		{"missing comma", "INSERT INTO t VALUES (1) (2)", "position 25: unexpected"},
		{"unterminated string", "INSERT INTO t VALUES (1, 'open", "position 25: unterminated string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseStatement(c.src)
			if err == nil {
				t.Fatalf("%q: want parse error", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q:\n  error = %v\n  want substring %q", c.src, err, c.want)
			}
		})
	}
}

// --- PREPARE / EXECUTE ---

func TestParsePrepareExecute(t *testing.T) {
	st, err := ParseStatement("prepare hot as SELECT r.a FROM r, s WHERE r.a = s.x LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	prep, ok := st.(*PrepareStmt)
	if !ok {
		t.Fatalf("parsed %T, want *PrepareStmt", st)
	}
	if prep.Name != "hot" || prep.Select == nil || prep.Select.Limit != 5 || len(prep.Select.From) != 2 {
		t.Errorf("parsed %+v (select %+v)", prep, prep.Select)
	}

	st, err = ParseStatement("EXECUTE hot")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*ExecuteStmt)
	if !ok {
		t.Fatalf("parsed %T, want *ExecuteStmt", st)
	}
	if ex.Name != "hot" {
		t.Errorf("name = %q", ex.Name)
	}
}

// TestPrepareExecuteWordsStayIdentifiers: like TABLE/INDEX/LATENCY, the new
// serving words must stay usable as ordinary identifiers in SELECTs.
func TestPrepareExecuteWordsStayIdentifiers(t *testing.T) {
	st, err := Parse("SELECT prepare, execute.a FROM prepare, execute AS e WHERE execute.prepare = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Select[0].Col != "prepare" || st.From[0].Source != "prepare" {
		t.Errorf("parsed %+v", st)
	}
}

// TestCanonical: the canonical rendering normalizes whitespace and keyword
// case (so equivalent statements share one plan-cache key), preserves
// identifier case, elides aliases equal to the source, and re-quotes
// strings with ” escapes. Canonical forms must be stable under reparse.
func TestCanonical(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"select * from r", "SELECT * FROM r"},
		{
			"select  R.a ,s.y   from R, s where R.a=s.x and R.key>=2 order by R.a desc limit 3",
			"SELECT R.a, s.y FROM R, s WHERE R.a = s.x AND R.key >= 2 ORDER BY R.a DESC LIMIT 3",
		},
		{"SELECT name FROM people p WHERE name = 'O''Brien'", "SELECT name FROM people AS p WHERE name = 'O''Brien'"},
		{"SELECT a FROM r AS r", "SELECT a FROM r"},
		{"SELECT a FROM r ORDER BY a ASC LIMIT 0", "SELECT a FROM r ORDER BY a LIMIT 0"},
	}
	for _, c := range cases {
		st, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got := st.Canonical()
		if got != c.want {
			t.Errorf("Canonical(%q)\n  = %q\n  want %q", c.src, got, c.want)
		}
		again, err := Parse(got)
		if err != nil {
			t.Fatalf("reparse of canonical %q: %v", got, err)
		}
		if re := again.Canonical(); re != got {
			t.Errorf("canonical not a fixed point: %q -> %q", got, re)
		}
	}
}
