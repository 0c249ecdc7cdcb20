// Package query models select-project-join queries over sources with
// declared access methods, and implements the query "planning" of Section
// 2.2 — which, with eddies and SteMs, reduces to validation plus module
// instantiation:
//
//  1. check the query is valid given the bind-field constraints on the data
//     sources (the Nail-style subgoal-ordering feasibility check),
//  2. create an AM on each usable access method,
//  3. create an SM on each predicate,
//  4. create a SteM on each base table,
//  5. create seed tuples for scans.
//
// Steps 2–5 are performed by the executors; this package owns the query
// description and step 1.
package query

import (
	"fmt"

	"repro/internal/pred"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
)

// AMKind distinguishes scan from index access methods.
type AMKind uint8

const (
	// Scan delivers the whole source in response to a seed tuple.
	Scan AMKind = iota
	// Index delivers matches for bound key fields.
	Index
)

// String renders the kind.
func (k AMKind) String() string {
	if k == Scan {
		return "scan"
	}
	return "index"
}

// AMDecl declares one access method available to the query. Several AMs may
// serve the same logical table — competitive access methods over mirrored
// sources (Section 3.2) — in which case each carries its own source data
// (possibly identical).
type AMDecl struct {
	// Table is the query position of the logical table this AM serves.
	Table int
	Kind  AMKind
	// Data is the backing rows for this access method.
	Data *source.Table
	// ScanSpec configures pacing for scan AMs.
	ScanSpec source.ScanSpec
	// IndexSpec configures key columns and latency for index AMs.
	IndexSpec source.IndexSpec
	// Name optionally labels the AM in traces; defaults to table+kind.
	Name string
}

// Q is a select-project-join query: a FROM list of logical tables, a
// predicate list (selections and joins), and the access methods available on
// each table.
type Q struct {
	Tables []*schema.Table
	Preds  []pred.P
	AMs    []AMDecl
}

// New assembles and validates a query. Predicate IDs are assigned by
// position.
func New(tables []*schema.Table, preds []pred.P, ams []AMDecl) (*Q, error) {
	q := &Q{Tables: tables, Preds: make([]pred.P, len(preds)), AMs: ams}
	for i, p := range preds {
		p.ID = i
		q.Preds[i] = p
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(tables []*schema.Table, preds []pred.P, ams []AMDecl) *Q {
	q, err := New(tables, preds, ams)
	if err != nil {
		panic(err)
	}
	return q
}

// NumTables returns the number of FROM-list tables.
func (q *Q) NumTables() int { return len(q.Tables) }

// AllTables returns the span of a complete result tuple.
func (q *Q) AllTables() tuple.TableSet { return tuple.All(len(q.Tables)) }

// AllPreds returns the done-bits of a fully verified tuple.
func (q *Q) AllPreds() tuple.PredSet { return tuple.AllPreds(len(q.Preds)) }

// AMsOn returns the indexes (into q.AMs) of the access methods on table t.
func (q *Q) AMsOn(t int) []int {
	var out []int
	for i, a := range q.AMs {
		if a.Table == t {
			out = append(out, i)
		}
	}
	return out
}

// HasScanAM reports whether table t has at least one scan access method.
func (q *Q) HasScanAM(t int) bool {
	for _, a := range q.AMs {
		if a.Table == t && a.Kind == Scan {
			return true
		}
	}
	return false
}

// HasIndexAM reports whether table t has at least one index access method.
func (q *Q) HasIndexAM(t int) bool {
	for _, a := range q.AMs {
		if a.Table == t && a.Kind == Index {
			return true
		}
	}
	return false
}

// JoinPredsConnecting returns the join predicates usable by a tuple with the
// given span to probe into table t.
func (q *Q) JoinPredsConnecting(span tuple.TableSet, t int) []pred.P {
	var out []pred.P
	for _, p := range q.Preds {
		if p.Connects(span, t) {
			out = append(out, p)
		}
	}
	return out
}

// Connects reports whether any join predicate connects a tuple spanning span
// to table t: JoinPredsConnecting-is-nonempty without building the list, for
// allocation-free routing checks.
func (q *Q) Connects(span tuple.TableSet, t int) bool {
	for _, p := range q.Preds {
		if p.Connects(span, t) {
			return true
		}
	}
	return false
}

// SelectionsOn returns the selection predicates over table t.
func (q *Q) SelectionsOn(t int) []pred.P {
	var out []pred.P
	for _, p := range q.Preds {
		if !p.IsJoin() && p.Left.Table == t {
			out = append(out, p)
		}
	}
	return out
}

// JoinEdges returns the set of undirected table pairs linked by a join
// predicate, as [2]int with the smaller position first.
func (q *Q) JoinEdges() [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, p := range q.Preds {
		if !p.IsJoin() {
			continue
		}
		a, b := p.Left.Table, p.Right.Table
		if a > b {
			a, b = b, a
		}
		e := [2]int{a, b}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// CanBindIndexAM reports whether a tuple with the given span can supply
// values for every key column of AM ai via equality join predicates.
func (q *Q) CanBindIndexAM(span tuple.TableSet, ai int) bool {
	a := q.AMs[ai]
	if a.Kind != Index {
		return false
	}
	for _, kc := range a.IndexSpec.KeyCols {
		if !q.keyColBound(span, a.Table, kc) {
			return false
		}
	}
	return true
}

func (q *Q) keyColBound(span tuple.TableSet, table, col int) bool {
	for _, p := range q.Preds {
		if !p.IsEquiJoin() {
			continue
		}
		if p.Left.Table == table && p.Left.Col == col && span.Has(p.Right.Table) {
			return true
		}
		if p.Right.Table == table && p.Right.Col == col && span.Has(p.Left.Table) {
			return true
		}
	}
	return false
}

// BindValues resolves the key-column binding of index AM ai from probe tuple
// t: for each key column it finds an equality join predicate linking it to a
// spanned column and extracts that value. ok is false if any key column is
// unbound.
func (q *Q) BindValues(t *tuple.Tuple, ai int) (vals []tuple.Row, ok bool) {
	a := q.AMs[ai]
	row := make(tuple.Row, 0, len(a.IndexSpec.KeyCols))
	for _, kc := range a.IndexSpec.KeyCols {
		found := false
		for _, p := range q.Preds {
			if !p.IsEquiJoin() {
				continue
			}
			if p.Left.Table == a.Table && p.Left.Col == kc && t.Span.Has(p.Right.Table) {
				row = append(row, t.Value(p.Right.Table, p.Right.Col))
				found = true
				break
			}
			if p.Right.Table == a.Table && p.Right.Col == kc && t.Span.Has(p.Left.Table) {
				row = append(row, t.Value(p.Left.Table, p.Left.Col))
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return []tuple.Row{row}, true
}

// Validate checks structural well-formedness and executability:
// column references in range, every table served by an AM, the join graph
// connected, and a feasible bind order existing under the sources'
// bind-field constraints (the Nail-style check of Section 2.2 step 1).
func (q *Q) Validate() error {
	n := len(q.Tables)
	if n == 0 {
		return fmt.Errorf("query: empty FROM list")
	}
	if n > tuple.MaxTables {
		return fmt.Errorf("query: %d tables exceeds the %d-table limit", n, tuple.MaxTables)
	}
	if len(q.Preds) > 64 {
		return fmt.Errorf("query: %d predicates exceeds the 64-predicate limit", len(q.Preds))
	}
	checkRef := func(r pred.ColRef) error {
		if r.Table < 0 || r.Table >= n {
			return fmt.Errorf("query: predicate references table %d of %d", r.Table, n)
		}
		if r.Col < 0 || r.Col >= q.Tables[r.Table].Arity() {
			return fmt.Errorf("query: predicate references %s column %d of %d",
				q.Tables[r.Table].Name, r.Col, q.Tables[r.Table].Arity())
		}
		return nil
	}
	for _, p := range q.Preds {
		if err := checkRef(p.Left); err != nil {
			return err
		}
		if p.IsJoin() {
			if err := checkRef(p.Right); err != nil {
				return err
			}
			if p.Left.Table == p.Right.Table {
				return fmt.Errorf("query: join predicate %s references one table; write it as a selection", p)
			}
		}
	}
	for i, a := range q.AMs {
		if a.Table < 0 || a.Table >= n {
			return fmt.Errorf("query: AM %d serves table %d of %d", i, a.Table, n)
		}
		if a.Data == nil {
			return fmt.Errorf("query: AM %d has no source data", i)
		}
		if a.Data.Schema.Arity() != q.Tables[a.Table].Arity() {
			return fmt.Errorf("query: AM %d source arity %d != table %s arity %d",
				i, a.Data.Schema.Arity(), q.Tables[a.Table].Name, q.Tables[a.Table].Arity())
		}
		if a.Kind == Index {
			if len(a.IndexSpec.KeyCols) == 0 {
				return fmt.Errorf("query: index AM %d has no key columns", i)
			}
			for _, kc := range a.IndexSpec.KeyCols {
				if kc < 0 || kc >= q.Tables[a.Table].Arity() {
					return fmt.Errorf("query: index AM %d key column %d out of range", i, kc)
				}
			}
		}
	}
	for t := 0; t < n; t++ {
		if len(q.AMsOn(t)) == 0 {
			return fmt.Errorf("query: table %s has no access method", q.Tables[t].Name)
		}
	}
	if n > 1 {
		if err := q.checkConnected(); err != nil {
			return err
		}
	}
	return q.checkBindOrder()
}

func (q *Q) checkConnected() error {
	n := len(q.Tables)
	adj := make([][]int, n)
	for _, e := range q.JoinEdges() {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for t, s := range seen {
		if !s {
			return fmt.Errorf("query: table %s is not join-connected (cross products unsupported)", q.Tables[t].Name)
		}
	}
	return nil
}

// checkBindOrder verifies a feasible subgoal order exists: starting from
// tables with scan AMs, a table becomes reachable when some AM on it is a
// scan, or an index AM whose key columns are all equality-bound to reachable
// tables. All tables must become reachable.
func (q *Q) checkBindOrder() error {
	n := len(q.Tables)
	reach := tuple.TableSet(0)
	for t := 0; t < n; t++ {
		if q.HasScanAM(t) {
			reach = reach.With(t)
		}
	}
	for changed := true; changed; {
		changed = false
		for t := 0; t < n; t++ {
			if reach.Has(t) {
				continue
			}
			for _, ai := range q.AMsOn(t) {
				if q.AMs[ai].Kind == Index && q.CanBindIndexAM(reach, ai) {
					reach = reach.With(t)
					changed = true
					break
				}
			}
		}
	}
	for t := 0; t < n; t++ {
		if !reach.Has(t) {
			return fmt.Errorf("query: no feasible bind order — table %s is unreachable given the sources' bind-field constraints", q.Tables[t].Name)
		}
	}
	return q.checkIndexOnlyBindability()
}

// checkIndexOnlyBindability rejects queries where a table x without a scan
// AM is join-adjacent to a table y that cannot bind any index AM on x by
// itself. Such a query may have a feasible global order, but tuples arriving
// from y's side would be unroutable dead-ends: they could neither probe x's
// AMs (unbindable) nor be dropped safely (no scan to regenerate their
// results). The paper's setting — indexes on the join attributes — always
// satisfies this.
func (q *Q) checkIndexOnlyBindability() error {
	for x := 0; x < len(q.Tables); x++ {
		if q.HasScanAM(x) {
			continue
		}
		for y := 0; y < len(q.Tables); y++ {
			if y == x || len(q.JoinPredsConnecting(tuple.Single(y), x)) == 0 {
				continue
			}
			ok := false
			for _, ai := range q.AMsOn(x) {
				if q.AMs[ai].Kind == Index && q.CanBindIndexAM(tuple.Single(y), ai) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("query: table %s has no scan AM and its index bind fields are not coverable from adjacent table %s",
					q.Tables[x].Name, q.Tables[y].Name)
			}
		}
	}
	return nil
}
