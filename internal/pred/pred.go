// Package pred models query predicates: selections (column op constant) and
// join predicates (column op column across two tables). Selection modules,
// SteM probes and access-module lookups all evaluate predicates from this
// package, and each predicate's ID indexes the done-bit bitmap in TupleState.
package pred

import (
	"fmt"

	"repro/internal/tuple"
	"repro/internal/value"
)

// Op is a comparison operator.
type Op uint8

const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// eval applies the operator to a comparison result.
func (o Op) eval(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	default:
		return false
	}
}

// Flip returns the operator with its operands swapped: a op b == b op.Flip() a.
func (o Op) Flip() Op {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return o
	}
}

// ColRef names a column by query table position and column index.
type ColRef struct {
	Table int
	Col   int
}

// P is a single predicate. If Const is non-nil the predicate is a selection
// Left op Const; otherwise it is a join predicate Left op Right.
type P struct {
	// ID is the predicate's position in the query predicate list; it indexes
	// the done-bit bitmap.
	ID    int
	Left  ColRef
	Op    Op
	Right ColRef
	Const *value.V
}

// Selection builds a selection predicate.
func Selection(table, col int, op Op, c value.V) P {
	return P{Left: ColRef{Table: table, Col: col}, Op: op, Const: &c}
}

// Join builds a join predicate.
func Join(lt, lc int, op Op, rt, rc int) P {
	return P{Left: ColRef{Table: lt, Col: lc}, Op: op, Right: ColRef{Table: rt, Col: rc}}
}

// EquiJoin builds an equality join predicate.
func EquiJoin(lt, lc, rt, rc int) P { return Join(lt, lc, Eq, rt, rc) }

// IsJoin reports whether the predicate references two tables.
func (p P) IsJoin() bool { return p.Const == nil }

// IsEquiJoin reports whether the predicate is an equality join.
func (p P) IsEquiJoin() bool { return p.IsJoin() && p.Op == Eq }

// Tables returns the set of tables the predicate references.
func (p P) Tables() tuple.TableSet {
	s := tuple.Single(p.Left.Table)
	if p.IsJoin() {
		s = s.With(p.Right.Table)
	}
	return s
}

// Connects reports whether the join predicate links a table inside span with
// table t outside it, i.e. whether a tuple with the given span can use this
// predicate to probe into table t.
func (p P) Connects(span tuple.TableSet, t int) bool {
	if !p.IsJoin() {
		return false
	}
	l, r := p.Left.Table, p.Right.Table
	if l == t && span.Has(r) {
		return true
	}
	if r == t && span.Has(l) {
		return true
	}
	return false
}

// ApplicableTo reports whether the predicate can be evaluated on a tuple with
// the given span: all referenced tables must be spanned.
func (p P) ApplicableTo(span tuple.TableSet) bool {
	return span.Contains(p.Tables())
}

// Eval evaluates the predicate on a tuple spanning all referenced tables.
// EOT marker values never satisfy a predicate against a real value: EOT
// tuples participate in dataflow but must not join with data tuples.
func (p P) Eval(t *tuple.Tuple) bool {
	lv := t.Value(p.Left.Table, p.Left.Col)
	var rv value.V
	if p.IsJoin() {
		rv = t.Value(p.Right.Table, p.Right.Col)
	} else {
		rv = *p.Const
	}
	if lv.IsEOT() || rv.IsEOT() {
		return false
	}
	return p.Op.eval(lv.Compare(rv))
}

// BindSide returns, for a join predicate connecting a tuple spanning span to
// table t, the column of t being constrained and the (table, col) on the
// spanned side supplying the binding value. The returned operator is
// oriented as "fromValue op t.column". ok is false if the predicate does not
// connect span to t.
func (p P) BindSide(span tuple.TableSet, t int) (tCol int, from ColRef, op Op, ok bool) {
	if !p.IsJoin() {
		return 0, ColRef{}, 0, false
	}
	if p.Left.Table == t && span.Has(p.Right.Table) {
		return p.Left.Col, p.Right, p.Op.Flip(), true
	}
	if p.Right.Table == t && span.Has(p.Left.Table) {
		return p.Right.Col, p.Left, p.Op, true
	}
	return 0, ColRef{}, 0, false
}

// String renders the predicate, e.g. "t0.c1 = t2.c0" or "t0.c1 <= 5".
func (p P) String() string {
	if p.IsJoin() {
		return fmt.Sprintf("t%d.c%d %s t%d.c%d", p.Left.Table, p.Left.Col, p.Op, p.Right.Table, p.Right.Col)
	}
	return fmt.Sprintf("t%d.c%d %s %s", p.Left.Table, p.Left.Col, p.Op, p.Const)
}
