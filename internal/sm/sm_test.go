package sm

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/pred"
	"repro/internal/tuple"
	"repro/internal/value"
)

func singleton(v int64) *tuple.Tuple {
	return tuple.NewSingleton(1, 0, tuple.Row{value.NewInt(v)})
}

// TestTable1_SM: "bounce back t iff it matches predicate", marking the done
// bit on success.
func TestTable1_SM(t *testing.T) {
	p := pred.Selection(0, 0, pred.Le, value.NewInt(5))
	p.ID = 3
	s := New(p, clock.Millisecond)

	pass := singleton(4)
	out, cost := s.Process(pass, 0)
	if len(out) != 1 || out[0].T != pass {
		t.Fatal("passing tuple must bounce back")
	}
	if !pass.Done.Has(3) {
		t.Error("pass must mark the done bit")
	}
	if cost != clock.Millisecond {
		t.Errorf("cost = %v", cost)
	}

	fail := singleton(9)
	out, _ = s.Process(fail, 0)
	if len(out) != 0 {
		t.Fatal("failing tuple must be removed from the dataflow")
	}
	if fail.Done.Has(3) {
		t.Error("fail must not mark the done bit")
	}
}

func TestJoinPredicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("join predicate must panic")
		}
	}()
	New(pred.EquiJoin(0, 0, 1, 0), 0)
}

func TestNameAndParallel(t *testing.T) {
	s := New(pred.Selection(0, 0, pred.Eq, value.NewInt(1)), 0)
	if s.Name() == "" || s.Parallel() != 1 {
		t.Error("module metadata wrong")
	}
	if s.Pred().Left.Table != 0 {
		t.Error("Pred accessor wrong")
	}
}
