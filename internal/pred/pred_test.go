package pred

import (
	"testing"
	"testing/quick"

	"repro/internal/tuple"
	"repro/internal/value"
)

func pair(a, b int64) *tuple.Tuple {
	t0 := tuple.NewSingleton(2, 0, tuple.Row{value.NewInt(a)})
	t1 := tuple.NewSingleton(2, 1, tuple.Row{value.NewInt(b)})
	return t0.Concat(t1)
}

func TestOpEvalTable(t *testing.T) {
	cases := []struct {
		op   Op
		l, r int64
		want bool
	}{
		{Eq, 1, 1, true}, {Eq, 1, 2, false},
		{Ne, 1, 2, true}, {Ne, 1, 1, false},
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
	}
	for _, c := range cases {
		p := Join(0, 0, c.op, 1, 0)
		if got := p.Eval(pair(c.l, c.r)); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestOpFlipProperty(t *testing.T) {
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(l, r int64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		direct := Join(0, 0, op, 1, 0).Eval(pair(l, r))
		flipped := Join(1, 0, op.Flip(), 0, 0).Eval(pair(l, r))
		return direct == flipped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectionEval(t *testing.T) {
	p := Selection(0, 0, Le, value.NewInt(5))
	lo := tuple.NewSingleton(1, 0, tuple.Row{value.NewInt(3)})
	hi := tuple.NewSingleton(1, 0, tuple.Row{value.NewInt(9)})
	if !p.Eval(lo) || p.Eval(hi) {
		t.Error("selection evaluation wrong")
	}
	if p.IsJoin() {
		t.Error("selection misclassified as join")
	}
}

func TestEOTValuesNeverMatch(t *testing.T) {
	p := EquiJoin(0, 0, 1, 0)
	t0 := tuple.NewSingleton(2, 0, tuple.Row{value.NewEOT()})
	t1 := tuple.NewSingleton(2, 1, tuple.Row{value.NewEOT()})
	if p.Eval(t0.Concat(t1)) {
		t.Error("EOT marker values must not satisfy predicates")
	}
}

func TestConnectsAndApplicable(t *testing.T) {
	p := EquiJoin(0, 1, 2, 0)
	if !p.Connects(tuple.Single(0), 2) {
		t.Error("should connect {0} to 2")
	}
	if !p.Connects(tuple.Single(2), 0) {
		t.Error("should connect {2} to 0")
	}
	if p.Connects(tuple.Single(1), 2) {
		t.Error("should not connect {1} to 2")
	}
	if p.ApplicableTo(tuple.Single(0)) {
		t.Error("join not applicable to one side")
	}
	if !p.ApplicableTo(tuple.Single(0).With(2)) {
		t.Error("join applicable to both sides")
	}
}

func TestBindSide(t *testing.T) {
	p := EquiJoin(0, 1, 2, 3) // t0.c1 = t2.c3
	col, from, op, ok := p.BindSide(tuple.Single(0), 2)
	if !ok || col != 3 || from.Table != 0 || from.Col != 1 || op != Eq {
		t.Errorf("BindSide = (%d,%v,%v,%v)", col, from, op, ok)
	}
	col, from, _, ok = p.BindSide(tuple.Single(2), 0)
	if !ok || col != 1 || from.Table != 2 || from.Col != 3 {
		t.Errorf("BindSide reversed = (%d,%v,%v)", col, from, ok)
	}
	_, _, _, ok = p.BindSide(tuple.Single(1), 2)
	if ok {
		t.Error("BindSide must fail for unconnected span")
	}
	// Orientation: the returned op reads "fromValue op t.column".
	lt := Join(0, 1, Lt, 2, 3) // t0.c1 < t2.c3
	_, _, op, ok = lt.BindSide(tuple.Single(0), 2)
	if !ok || op != Lt {
		t.Errorf("BindSide orientation: got %v %v, want < (from < t.col)", op, ok)
	}
	_, _, op, ok = lt.BindSide(tuple.Single(2), 0)
	if !ok || op != Gt {
		t.Errorf("BindSide reversed orientation: got %v %v, want > (from > t.col)", op, ok)
	}
}

func TestStringRendering(t *testing.T) {
	if s := EquiJoin(0, 1, 2, 0).String(); s != "t0.c1 = t2.c0" {
		t.Errorf("join String = %q", s)
	}
	if s := Selection(1, 0, Le, value.NewInt(5)).String(); s != "t1.c0 <= 5" {
		t.Errorf("selection String = %q", s)
	}
	for _, o := range []Op{Eq, Ne, Lt, Le, Gt, Ge} {
		if o.String() == "" {
			t.Error("op must render")
		}
	}
}

func TestTables(t *testing.T) {
	if EquiJoin(0, 0, 3, 0).Tables() != tuple.Single(0).With(3) {
		t.Error("join Tables wrong")
	}
	if Selection(2, 0, Eq, value.NewInt(1)).Tables() != tuple.Single(2) {
		t.Error("selection Tables wrong")
	}
}
