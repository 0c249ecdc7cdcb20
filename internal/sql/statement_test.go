package sql

import (
	"strings"
	"testing"
)

// The statement shapes of the serving benchmark: an ad-hoc J(k) join, a
// prepared-statement execution, and an 8-row INSERT of four integers.
const (
	joinK   = "SELECT customers.region, items.price, orders.total FROM customers, orders, items WHERE customers.id = orders.cust AND orders.item = items.id AND items.cat = 3"
	execHot = "EXECUTE hot"
)

var insert8x4 = "INSERT INTO orders VALUES " + strings.Repeat("(100001, 42, 7, 1234), ", 7) + "(100008, 43, 8, 99)"

// TestParseAllocations pins the front end's cost per statement, not per
// token: a SELECT allocates its *Stmt and one exact-size array per non-empty
// list, an EXECUTE its *ExecuteStmt, an INSERT its statement, one value slab,
// the row headers over it and the owned copy of its strings, and rendering
// the canonical form into a reused buffer allocates nothing.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sel, err := Parse(joinK)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"J(k) SELECT", 4, func() { Parse(joinK) }},
		{"EXECUTE", 1, func() { ParseStatement(execHot) }},
		{"INSERT + RowValues", 10, func() {
			st, _ := ParseStatement(insert8x4)
			st.(*InsertStmt).RowValues()
		}},
		{"AppendCanonical", 0, func() { buf = sel.AppendCanonical(buf[:0]) }},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %v allocations", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
	if string(buf) != sel.Canonical() {
		t.Errorf("AppendCanonical = %q, Canonical = %q", buf, sel.Canonical())
	}
}

// TestIntegerRange: an integer literal outside int64 is an error wherever
// it appears, not a wrapped value; the int64 minimum still parses.
func TestIntegerRange(t *testing.T) {
	for _, src := range []string{
		"SELECT a FROM t LIMIT 9223372036854775808",
		"INSERT INTO t VALUES (9223372036854775808)",
		"SELECT a FROM t WHERE a = 99999999999999999999",
		"SELECT a FROM t WHERE a = -9223372036854775809",
		"REGISTER TABLE t FROM 't.csv' INDEX a LATENCY 99999999999999999999ms",
	} {
		if _, err := ParseStatement(src); err == nil || !strings.Contains(err.Error(), "integer out of range") {
			t.Errorf("%q: error = %v, want integer out of range", src, err)
		}
	}
	st, err := ParseStatement("INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807)")
	if err != nil {
		t.Fatal(err)
	}
	if row := st.(*InsertStmt).RowValues()[0]; row[0].I != -9223372036854775808 || row[1].I != 9223372036854775807 {
		t.Errorf("bounds decoded as %v", row)
	}
	sel, err := Parse("SELECT a FROM t WHERE a = -9223372036854775808 LIMIT 9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT a FROM t WHERE a = -9223372036854775808 LIMIT 9223372036854775807"; sel.Canonical() != want {
		t.Errorf("Canonical = %q, want %q", sel.Canonical(), want)
	}
}

// TestUnicodeIdentifiers: identifiers are Unicode letters, digits and '_',
// decoded as runes, and round-trip through the canonical form.
func TestUnicodeIdentifiers(t *testing.T) {
	sel, err := Parse("select é, straße.größe from straße, t WHERE straße.größe = t.x2 and é = 'ü'")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT é, straße.größe FROM straße, t WHERE straße.größe = t.x2 AND é = 'ü'"
	if got := sel.Canonical(); got != want {
		t.Fatalf("Canonical = %q, want %q", got, want)
	}
	again, err := Parse(want)
	if err != nil || again.Canonical() != want {
		t.Errorf("reparse of %q: %v, %v", want, again, err)
	}
}

// TestInsertOwnsItsStrings: the rows and table name an INSERT hands the
// catalog share no bytes with the statement text, so a stored row does not
// keep a request alive.
func TestInsertOwnsItsStrings(t *testing.T) {
	src := "INSERT INTO people VALUES (1, 'ann'), (2, 'O''Brien'), (3, ''), (4, NULL)"
	st, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if ins.Table != "people" || within(ins.Table, src) {
		t.Errorf("table %q aliases the statement text", ins.Table)
	}
	want := []string{"ann", "O'Brien", "", ""}
	for i, row := range ins.RowValues() {
		if row[1].S != want[i] || within(row[1].S, src) {
			t.Errorf("row %d string %q aliases the statement text or differs from %q", i, row[1].S, want[i])
		}
	}
}

// TestLexicalErrorWins: tokens are pulled as the parser needs them, yet a
// lexical error anywhere in the statement is still reported ahead of a
// syntax error before it, as when the whole statement was lexed first.
func TestLexicalErrorWins(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT FROM r WHERE a = 'oops":            "position 24: unterminated string",
		"SELECT FROM r LIMIT 99999999999999999999": "position 20: integer out of range",
		"EXECUTE p extra $":                        "position 16: unexpected '$'",
	} {
		if _, err := ParseStatement(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error = %v, want %q", src, err, want)
		}
	}
}
