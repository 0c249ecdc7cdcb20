package query

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/pred"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

func mkTable(name string, cols int, n int) *source.Table {
	sc := make([]schema.Column, cols)
	names := []string{"a", "b", "c", "d"}
	for i := range sc {
		sc[i] = schema.IntCol(names[i])
	}
	sch := schema.MustTable(name, sc...)
	rows := make([]tuple.Row, n)
	for i := range rows {
		r := make(tuple.Row, cols)
		for j := range r {
			r[j] = value.NewInt(int64(i + j))
		}
		rows[i] = r
	}
	return source.MustTable(sch, rows)
}

func scan(t int, d *source.Table) AMDecl {
	return AMDecl{Table: t, Kind: Scan, Data: d, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}}
}

func index(t int, d *source.Table, cols ...int) AMDecl {
	return AMDecl{Table: t, Kind: Index, Data: d, IndexSpec: source.IndexSpec{KeyCols: cols, Latency: clock.Millisecond}}
}

func TestValidQuery(t *testing.T) {
	r, s := mkTable("R", 2, 3), mkTable("S", 2, 3)
	q, err := New([]*schema.Table{r.Schema, s.Schema},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]AMDecl{scan(0, r), scan(1, s)})
	if err != nil {
		t.Fatal(err)
	}
	if q.NumTables() != 2 || q.AllTables() != tuple.All(2) || q.AllPreds() != tuple.AllPreds(1) {
		t.Error("basic accessors wrong")
	}
	if !q.HasScanAM(0) || q.HasIndexAM(0) {
		t.Error("AM classification wrong")
	}
}

func TestValidationErrors(t *testing.T) {
	r, s := mkTable("R", 2, 3), mkTable("S", 2, 3)
	tables := []*schema.Table{r.Schema, s.Schema}
	jn := pred.EquiJoin(0, 1, 1, 0)

	cases := []struct {
		name   string
		tables []*schema.Table
		preds  []pred.P
		ams    []AMDecl
		want   string
	}{
		{"empty FROM", nil, nil, nil, "empty FROM"},
		{"no AM", tables, []pred.P{jn}, []AMDecl{scan(0, r)}, "no access method"},
		{"bad col ref", tables, []pred.P{pred.EquiJoin(0, 9, 1, 0)}, []AMDecl{scan(0, r), scan(1, s)}, "column"},
		{"bad table ref", tables, []pred.P{pred.EquiJoin(0, 0, 5, 0)}, []AMDecl{scan(0, r), scan(1, s)}, "table"},
		{"self join pred", tables, []pred.P{pred.EquiJoin(0, 0, 0, 1), jn}, []AMDecl{scan(0, r), scan(1, s)}, "one table"},
		{"cross product", tables, nil, []AMDecl{scan(0, r), scan(1, s)}, "join-connected"},
		{"index no keycols", tables, []pred.P{jn}, []AMDecl{scan(0, r), {Table: 1, Kind: Index, Data: s}}, "key columns"},
		{"unreachable bind order", tables, []pred.P{jn},
			[]AMDecl{index(0, r, 1), index(1, s, 0)}, "bind order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.tables, c.preds, c.ams)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestIndexOnlyBindability(t *testing.T) {
	// Chain T0–T1–T2; T1 index-only with the key on the T2-side predicate:
	// a T0-side tuple could never bind it — must be rejected.
	a, b, c := mkTable("A", 2, 2), mkTable("B", 3, 2), mkTable("C", 2, 2)
	tables := []*schema.Table{a.Schema, b.Schema, c.Schema}
	preds := []pred.P{
		pred.EquiJoin(0, 1, 1, 0), // A.b = B.a
		pred.EquiJoin(1, 2, 2, 0), // B.c = C.a
	}
	_, err := New(tables, preds, []AMDecl{
		scan(0, a), index(1, b, 2), scan(2, c),
	})
	if err == nil || !strings.Contains(err.Error(), "bind fields") {
		t.Errorf("want bindability error, got %v", err)
	}
	// With the index on B.a (bound from A) AND B.c (bound from C)... a
	// single index on the A-side column alone also fails from C's side.
	_, err = New(tables, preds, []AMDecl{
		scan(0, a), index(1, b, 0), scan(2, c),
	})
	if err == nil {
		t.Error("index bindable from only one neighbour must be rejected")
	}
	// Two indexes covering both neighbours pass.
	if _, err = New(tables, preds, []AMDecl{
		scan(0, a), index(1, b, 0), index(1, b, 2), scan(2, c),
	}); err != nil {
		t.Errorf("dual-index table rejected: %v", err)
	}
}

func TestBindValues(t *testing.T) {
	r, s := mkTable("R", 2, 3), mkTable("S", 2, 3)
	q := MustNew([]*schema.Table{r.Schema, s.Schema},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)}, // R.b = S.a
		[]AMDecl{scan(0, r), index(1, s, 0)})
	probe := tuple.NewSingleton(2, 0, tuple.Row{value.NewInt(7), value.NewInt(42)})
	vals, ok := q.BindValues(probe, 1)
	if !ok || len(vals) != 1 || !vals[0][0].Equal(value.NewInt(42)) {
		t.Errorf("BindValues = %v, %v", vals, ok)
	}
	if !q.CanBindIndexAM(tuple.Single(0), 1) {
		t.Error("CanBindIndexAM should hold")
	}
	if q.CanBindIndexAM(tuple.Single(1), 1) {
		t.Error("cannot bind own table's index from itself")
	}
}

func TestJoinPredsConnectingAndSelections(t *testing.T) {
	r, s := mkTable("R", 2, 3), mkTable("S", 2, 3)
	q := MustNew([]*schema.Table{r.Schema, s.Schema},
		[]pred.P{
			pred.EquiJoin(0, 1, 1, 0),
			pred.Selection(0, 0, pred.Le, value.NewInt(1)),
		},
		[]AMDecl{scan(0, r), scan(1, s)})
	if len(q.JoinPredsConnecting(tuple.Single(0), 1)) != 1 {
		t.Error("connecting preds wrong")
	}
	if len(q.SelectionsOn(0)) != 1 || len(q.SelectionsOn(1)) != 0 {
		t.Error("SelectionsOn wrong")
	}
	if len(q.JoinEdges()) != 1 {
		t.Error("JoinEdges wrong")
	}
}

func TestTooManyTables(t *testing.T) {
	// 65 tables exceed the TableSet width.
	n := tuple.MaxTables + 1
	tables := make([]*schema.Table, n)
	var ams []AMDecl
	var preds []pred.P
	for i := 0; i < n; i++ {
		d := mkTable(string(rune('A'+i%26))+string(rune('0'+i/26)), 2, 1)
		tables[i] = d.Schema
		ams = append(ams, scan(i, d))
		if i > 0 {
			preds = append(preds, pred.EquiJoin(i-1, 0, i, 0))
		}
	}
	if _, err := New(tables, preds, ams); err == nil {
		t.Error("65-table query must be rejected")
	}
}
