// bind.go resolves a parsed statement against a catalog of sources into the
// engine's query model: FROM aliases become table positions (a source
// appearing under two aliases is a self-join — both positions share the
// source's data, and at execution time both positions get their own SteM;
// sharing one SteM across self-join instances, which the paper notes is
// possible, is left to the engine's future work), WHERE comparisons become
// predicates, and each alias receives the access methods its source
// declares.
package sql

import (
	"fmt"
	"sort"

	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Source is one catalog entry: data plus the access methods the source
// supports. At least one access method is required.
type Source struct {
	Data *source.Table
	// Scan, when non-nil, declares a scan access method.
	Scan *source.ScanSpec
	// Indexes declare index access methods.
	Indexes []source.IndexSpec
	// Gen is stamped by a serving catalog: it moves when the entry is
	// replaced (REGISTER, a new index) and stays when rows are appended, so
	// "same Gen, more rows" identifies an append-only extension of the table
	// a reader bound earlier. Zero outside a server catalog.
	Gen uint64
}

// Catalog resolves source names.
type Catalog interface {
	// Source returns the named source, or false.
	Source(name string) (Source, bool)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]Source

// Source implements Catalog.
func (m MapCatalog) Source(name string) (Source, bool) {
	s, ok := m[name]
	return s, ok
}

// OutputCol is one projected column of the bound query.
type OutputCol struct {
	// Name is the display label, "alias.column".
	Name string
	// Table and Col locate the value in result tuples.
	Table int
	Col   int
}

// BoundOrder is one resolved ORDER BY key.
type BoundOrder struct {
	Table int
	Col   int
	Desc  bool
}

// Bound is a fully resolved statement ready to execute.
type Bound struct {
	Q *query.Q
	// Output is the projection list in SELECT order (all columns of all
	// tables, FROM order, for SELECT *).
	Output []OutputCol
	// OrderBy are the resolved ordering keys; Limit is -1 for no limit.
	// Both are applied above the eddy via Arrange.
	OrderBy []BoundOrder
	Limit   int
}

// Arrange applies the statement's ORDER BY and LIMIT to completed result
// tuples — the "above the eddy, before results are output to the user"
// layer of the paper's footnote 1. The sort is stable, preserving emission
// order among ties (the online arrival order).
func (b *Bound) Arrange(rows []*tuple.Tuple) []*tuple.Tuple {
	out := append([]*tuple.Tuple(nil), rows...)
	if len(b.OrderBy) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for _, k := range b.OrderBy {
				c := out[i].Value(k.Table, k.Col).Compare(out[j].Value(k.Table, k.Col))
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if b.Limit >= 0 && len(out) > b.Limit {
		out = out[:b.Limit]
	}
	return out
}

// RowValues returns an INSERT statement's literal rows as engine rows, ready
// for the catalog to keep. Schema validation (arity, column kinds) is the
// appending catalog's job.
func (s *InsertStmt) RowValues() []tuple.Row { return s.Rows }

// Bind resolves the statement against the catalog.
func Bind(st *Stmt, cat Catalog) (*Bound, error) {
	if len(st.From) == 0 {
		return nil, fmt.Errorf("sql: empty FROM list")
	}
	// Resolve FROM entries.
	aliasPos := make(map[string]int)
	var tables []*schema.Table
	var ams []query.AMDecl
	for i, ref := range st.From {
		if _, dup := aliasPos[ref.Alias]; dup {
			return nil, fmt.Errorf("sql: duplicate alias %q in FROM", ref.Alias)
		}
		src, ok := cat.Source(ref.Source)
		if !ok {
			return nil, fmt.Errorf("sql: unknown source %q", ref.Source)
		}
		aliasPos[ref.Alias] = i
		// Present the table under its alias so diagnostics read naturally.
		aliased := &schema.Table{Name: ref.Alias, Cols: src.Data.Schema.Cols}
		tables = append(tables, aliased)
		if src.Scan != nil {
			ams = append(ams, query.AMDecl{Table: i, Kind: query.Scan, Data: src.Data, ScanSpec: *src.Scan})
		}
		for _, ix := range src.Indexes {
			ams = append(ams, query.AMDecl{Table: i, Kind: query.Index, Data: src.Data, IndexSpec: ix})
		}
		if src.Scan == nil && len(src.Indexes) == 0 {
			return nil, fmt.Errorf("sql: source %q declares no access methods", ref.Source)
		}
	}

	resolve := func(c ColRef) (int, int, error) {
		if c.Table != "" {
			ti, ok := aliasPos[c.Table]
			if !ok {
				return 0, 0, fmt.Errorf("sql: unknown table alias %q", c.Table)
			}
			ci := tables[ti].ColIndex(c.Col)
			if ci < 0 {
				return 0, 0, fmt.Errorf("sql: no column %q in %q", c.Col, c.Table)
			}
			return ti, ci, nil
		}
		// Unqualified: must be unambiguous across the FROM list.
		ti, ci := -1, -1
		for i, tb := range tables {
			if j := tb.ColIndex(c.Col); j >= 0 {
				if ti >= 0 {
					return 0, 0, fmt.Errorf("sql: column %q is ambiguous", c.Col)
				}
				ti, ci = i, j
			}
		}
		if ti < 0 {
			return 0, 0, fmt.Errorf("sql: unknown column %q", c.Col)
		}
		return ti, ci, nil
	}

	// Predicates.
	var preds []pred.P
	for _, c := range st.Where {
		p, err := bindCond(c, resolve)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}

	// Projection.
	var out []OutputCol
	if st.Star {
		for ti, tb := range tables {
			for ci, col := range tb.Cols {
				out = append(out, OutputCol{Name: tb.Name + "." + col.Name, Table: ti, Col: ci})
			}
		}
	} else {
		for _, c := range st.Select {
			ti, ci, err := resolve(c)
			if err != nil {
				return nil, err
			}
			out = append(out, OutputCol{Name: tables[ti].Name + "." + tables[ti].Cols[ci].Name, Table: ti, Col: ci})
		}
	}

	// ORDER BY keys.
	var orderBy []BoundOrder
	for _, o := range st.OrderBy {
		ti, ci, err := resolve(o.Col)
		if err != nil {
			return nil, err
		}
		orderBy = append(orderBy, BoundOrder{Table: ti, Col: ci, Desc: o.Desc})
	}

	q, err := query.New(tables, preds, ams)
	if err != nil {
		return nil, err
	}
	return &Bound{Q: q, Output: out, OrderBy: orderBy, Limit: st.Limit}, nil
}

func bindCond(c Cond, resolve func(ColRef) (int, int, error)) (pred.P, error) {
	op, err := bindOp(c.Op)
	if err != nil {
		return pred.P{}, err
	}
	l, r := c.Left, c.Right
	// Normalize "const op col" to "col flipped-op const".
	if l.Kind != OpCol && r.Kind == OpCol {
		l, r = r, l
		op = op.Flip()
	}
	if l.Kind != OpCol {
		return pred.P{}, fmt.Errorf("sql: comparison between two constants is not supported")
	}
	lt, lc, err := resolve(l.Col)
	if err != nil {
		return pred.P{}, err
	}
	switch r.Kind {
	case OpCol:
		rt, rc, err := resolve(r.Col)
		if err != nil {
			return pred.P{}, err
		}
		if rt == lt {
			return pred.P{}, fmt.Errorf("sql: predicate %s %s %s references one table; single-table comparisons must compare against a constant", l.Col, c.Op, r.Col)
		}
		return pred.Join(lt, lc, op, rt, rc), nil
	case OpInt:
		return pred.Selection(lt, lc, op, value.NewInt(r.Int)), nil
	default:
		return pred.Selection(lt, lc, op, value.NewStr(r.Str)), nil
	}
}

func bindOp(op string) (pred.Op, error) {
	switch op {
	case "=":
		return pred.Eq, nil
	case "<>":
		return pred.Ne, nil
	case "<":
		return pred.Lt, nil
	case "<=":
		return pred.Le, nil
	case ">":
		return pred.Gt, nil
	case ">=":
		return pred.Ge, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", op)
	}
}
