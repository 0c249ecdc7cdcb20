// kernels.go implements vectorized predicate evaluation over the columnar
// batch representation: tight per-column compare loops that filter a
// selection vector in place instead of boxing one value.V pair per row.
//
// Every kernel reproduces P.Eval exactly — including the cross-kind ordering
// of value.Compare (Null < Int < Str < EOT) and the rule that EOT marker
// values never satisfy a predicate — so the columnar and row paths agree on
// every input, which the cross-representation property test asserts.
package pred

import (
	"repro/internal/flow"
	"repro/internal/value"
)

// FilterVec keeps the live rows (per sel, indexes into v) whose value
// satisfies "value op c", writing the surviving indexes into sel's prefix
// and returning it. It allocates only when a string constant meets a
// dictionary whose pass-table has to grow.
func FilterVec(v *flow.Vec, op Op, c value.V, sel []int32) []int32 {
	// Fast path: homogeneous int column against an int constant.
	if v.Kind == value.Int && c.K == value.Int && len(v.Null) == 0 && len(v.EOT) == 0 {
		return filterIntConst(v.Ints, op, c.I, sel)
	}
	// Fast path: dictionary-encoded strings against a string constant —
	// evaluate once per distinct dictionary entry, then filter codes.
	if v.Kind == value.Str && c.K == value.Str && len(v.Null) == 0 && len(v.EOT) == 0 {
		return filterStrConst(v, op, c.S, sel)
	}
	// General path: per-row boxed comparison, still allocation-free.
	out := sel[:0]
	for _, i := range sel {
		lv := v.ValueAt(int(i))
		if lv.IsEOT() || c.IsEOT() {
			continue
		}
		if op.eval(lv.Compare(c)) {
			out = append(out, i)
		}
	}
	return out
}

func filterIntConst(ints []int64, op Op, c int64, sel []int32) []int32 {
	out := sel[:0]
	switch op {
	case Eq:
		for _, i := range sel {
			if ints[i] == c {
				out = append(out, i)
			}
		}
	case Ne:
		for _, i := range sel {
			if ints[i] != c {
				out = append(out, i)
			}
		}
	case Lt:
		for _, i := range sel {
			if ints[i] < c {
				out = append(out, i)
			}
		}
	case Le:
		for _, i := range sel {
			if ints[i] <= c {
				out = append(out, i)
			}
		}
	case Gt:
		for _, i := range sel {
			if ints[i] > c {
				out = append(out, i)
			}
		}
	case Ge:
		for _, i := range sel {
			if ints[i] >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

func filterStrConst(v *flow.Vec, op Op, c string, sel []int32) []int32 {
	// One comparison per distinct dictionary string, then a table lookup per
	// row — the dictionary-encoding payoff for selective string predicates.
	n := v.Dict.Len()
	pass := make([]bool, n)
	for code := 0; code < n; code++ {
		s := v.Dict.At(int32(code))
		cmp := 0
		switch {
		case s < c:
			cmp = -1
		case s > c:
			cmp = 1
		}
		pass[code] = op.eval(cmp)
	}
	out := sel[:0]
	for _, i := range sel {
		if pass[v.Codes[i]] {
			out = append(out, i)
		}
	}
	return out
}

// FilterColConst filters cb's selection vector in place with the selection
// predicate p (Left op Const), returning the number of surviving rows. The
// caller must have verified p.ApplicableTo(cb.Span).
func FilterColConst(cb *flow.ColBatch, p P) int {
	v := &cb.Tabs[p.Left.Table].Cols[p.Left.Col]
	sel := cb.EnsureSel()
	cb.Sel = FilterVec(v, p.Op, *p.Const, sel)
	return len(cb.Sel)
}

// EvalColRow evaluates join predicate p between physical row i of cb (which
// must span one side) and a stored row of the other side's table, on SteM
// probe verification paths.
func EvalColRow(p P, cb *flow.ColBatch, i int, table int, row []value.V) bool {
	var lv, rv value.V
	if p.Left.Table == table {
		lv = row[p.Left.Col]
		rv = cb.Value(p.Right.Table, p.Right.Col, i)
	} else {
		lv = cb.Value(p.Left.Table, p.Left.Col, i)
		rv = row[p.Right.Col]
	}
	if lv.IsEOT() || rv.IsEOT() {
		return false
	}
	return p.Op.eval(lv.Compare(rv))
}

// EvalRowSel evaluates a selection predicate on a stored row of its table
// (SteM probe verification of a selection pushed past the build).
func EvalRowSel(p P, row []value.V) bool {
	lv := row[p.Left.Col]
	if lv.IsEOT() || p.Const.IsEOT() {
		return false
	}
	return p.Op.eval(lv.Compare(*p.Const))
}

// EvalCol evaluates predicate p on physical row i of cb, both sides read
// from column vectors (used when every referenced table is in cb.Span).
func EvalCol(p P, cb *flow.ColBatch, i int) bool {
	lv := cb.Value(p.Left.Table, p.Left.Col, i)
	var rv value.V
	if p.IsJoin() {
		rv = cb.Value(p.Right.Table, p.Right.Col, i)
	} else {
		rv = *p.Const
	}
	if lv.IsEOT() || rv.IsEOT() {
		return false
	}
	return p.Op.eval(lv.Compare(rv))
}
