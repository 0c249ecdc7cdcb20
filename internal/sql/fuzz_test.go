package sql

// FuzzParseStatement hammers the statement parser with arbitrary input: it
// must either return a statement or an error — never panic, never loop. An
// error names a byte position inside the source; an accepted SELECT renders
// the same canonical text through both entry points, and that text is a fixed
// point under reparse; an accepted INSERT's rows share one arity. The seed
// corpus is the table-driven malformed cases plus representative valid
// statements, so mutation starts near the grammar's edges.

import (
	"fmt"
	"testing"
	"unicode/utf8"
)

func FuzzParseStatement(f *testing.F) {
	seeds := []string{
		// Valid statements of both kinds.
		"SELECT * FROM r",
		"SELECT r.a, s.y FROM r, s WHERE r.a = s.x AND r.key >= 2 ORDER BY r.a DESC LIMIT 3",
		"SELECT name FROM people WHERE name = 'O''Brien'",
		"REGISTER TABLE people FROM 'data/people.csv'",
		"register table t from 'x.csv' index id latency 200ms index name latency '1s'",
		"PREPARE hot AS SELECT r.a FROM r, s WHERE r.a = s.x LIMIT 5",
		"prepare p1 as select * from people where name = 'O''Brien'",
		"EXECUTE hot",
		"execute p1",
		"SELECT prepare, execute FROM prepare WHERE execute.prepare = 1",
		"INSERT INTO t VALUES (1, 'x')",
		"insert into t values (1, 'it''s'), (-2, NULL), (3, 'z')",
		"SELECT insert, null FROM values WHERE into.null = 1",
		// The malformed table-driven cases.
		"",
		"FROM r",
		"SELECT FROM r",
		"SELECT * FROM",
		"SELECT * FROM r WHERE",
		"SELECT * FROM r WHERE a =",
		"SELECT * FROM r extra garbage =",
		"SELECT a. FROM r",
		"SELECT * FROM r WHERE name = 'oops",
		"SELECT * FROM r WHERE a = 1 AND",
		"SELEC * FROM r",
		"SELECT * FORM r",
		"SELECT * FROM r WHERE a = $",
		"SELECT * FROM r WHERE = 1",
		"SELECT * FROM r WHERE a = 1 1",
		"SELECT * FROM r LIMIT -3",
		"REGISTER people FROM 'p.csv'",
		"REGISTER TABLE p FROM p.csv",
		"REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY 200",
		"REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY 'soon'",
		"REGISTER TABLE p FROM 'p.csv' INDEX id LATENCY -50ms",
		"REGISTER TABLE p FROM 'p.csv' INDEX id 200ms",
		"PREPARE",
		"PREPARE AS SELECT * FROM r",
		"PREPARE p SELECT * FROM r",
		"PREPARE p AS",
		"PREPARE p AS REGISTER TABLE t FROM 't.csv'",
		"PREPARE p AS EXECUTE q",
		"EXECUTE",
		"EXECUTE 'name'",
		"EXECUTE p extra",
		"INSERT t VALUES (1)",
		"INSERT INTO t (1, 2)",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES ()",
		"INSERT INTO t VALUES (1,)",
		"INSERT INTO t VALUES (1) (2)",
		"INSERT INTO t VALUES (a)",
		"INSERT INTO t VALUES (1), (2, 3)",
		"INSERT INTO t VALUES (1, 'open",
		// The serving benchmark's statement shapes.
		joinK,
		"SELECT s_people.name, s_items.label, s_orders.total FROM s_people, s_orders, s_items WHERE s_people.id = s_orders.person AND s_orders.item = s_items.id AND s_orders.total > 17",
		insert8x4,
		// Escaped quotes, non-ASCII identifiers, integer bounds.
		"SELECT a FROM t WHERE a = '''' AND b = 'x''y''z'",
		"INSERT INTO t VALUES ('''', 'it''s', '')",
		"SELECT é, straße.größe FROM straße WHERE größe = 'ü'",
		"SELECT a\xff FROM t",
		"SELECT a FROM t LIMIT 9223372036854775808",
		"INSERT INTO t VALUES (9223372036854775808)",
		"SELECT a FROM t WHERE a = 99999999999999999999",
		"INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := ParseStatement(src)
		if err != nil {
			if st != nil {
				t.Fatalf("error %v alongside a non-nil statement", err)
			}
			if utf8.ValidString(src) && err.Error() == "" {
				t.Fatal("empty error message")
			}
			var pos int
			if _, perr := fmt.Sscanf(err.Error(), "sql: position %d:", &pos); perr != nil || pos < 0 || pos > len(src) {
				t.Fatalf("error %q does not name a position in [0, %d]", err, len(src))
			}
			return
		}
		if st == nil {
			t.Fatal("nil statement without error")
		}
		switch st := st.(type) {
		case *Stmt:
			canon := st.Canonical()
			if app := string(st.AppendCanonical(nil)); app != canon {
				t.Fatalf("AppendCanonical %q != Canonical %q", app, canon)
			}
			again, err := Parse(canon)
			if err != nil {
				t.Fatalf("canonical %q does not reparse: %v", canon, err)
			}
			if re := again.Canonical(); re != canon {
				t.Fatalf("canonical not a fixed point: %q -> %q", canon, re)
			}
		case *InsertStmt:
			rows := st.RowValues()
			for i, row := range rows {
				if len(row) != len(rows[0]) {
					t.Fatalf("row %d has %d values, row 0 has %d", i, len(row), len(rows[0]))
				}
			}
		}
	})
}
