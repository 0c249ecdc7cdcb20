package flow

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/tuple"
)

func TestEmitConstructors(t *testing.T) {
	tp := tuple.NewSingleton(2, 0, tuple.Row{})
	e := Emit(tp)
	if e.T != tp || e.Delay != 0 {
		t.Fatalf("Emit = %+v, want tuple with zero delay", e)
	}
	d := EmitAfter(tp, 5*clock.Millisecond)
	if d.T != tp || d.Delay != 5*clock.Millisecond {
		t.Fatalf("EmitAfter = %+v, want tuple with 5ms delay", d)
	}
}

func TestBatchHelpers(t *testing.T) {
	b := &Batch{}
	if b.Len() != 0 {
		t.Fatalf("empty batch Len = %d, want 0", b.Len())
	}
	t1 := tuple.NewSingleton(2, 0, tuple.Row{})
	t2 := tuple.NewSingleton(2, 1, tuple.Row{})
	b.Add(t1)
	b.Add(t2)
	if b.Len() != 2 {
		t.Fatalf("Len after two Adds = %d, want 2", b.Len())
	}
	if !b.Contains(t1) || !b.Contains(t2) {
		t.Fatal("Contains should find both added tuples")
	}
	if b.Contains(tuple.NewSingleton(2, 0, tuple.Row{})) {
		t.Fatal("Contains matched a foreign tuple (identity, not value, expected)")
	}
	b.Reset()
	if b.Len() != 0 || b.Contains(t1) {
		t.Fatal("Reset should empty the batch")
	}

	bo := BatchOf(t1, t2)
	if bo.Len() != 2 || bo.Tuples[0] != t1 || bo.Tuples[1] != t2 {
		t.Fatalf("BatchOf order/content wrong: %v", bo.Tuples)
	}
}

// recorder is a per-tuple module that records service times, emits every
// tuple straight back, and drops tuples marked by dropSpan.
type recorder struct {
	cost     clock.Duration
	dropSpan tuple.TableSet
	nows     []clock.Time
}

func (r *recorder) Name() string  { return "recorder" }
func (r *recorder) Parallel() int { return 1 }

func (r *recorder) Process(t *tuple.Tuple, now clock.Time) ([]Emission, clock.Duration) {
	r.nows = append(r.nows, now)
	if t.Span == r.dropSpan {
		return nil, r.cost
	}
	return []Emission{Emit(t)}, r.cost
}

// nativeBatch implements BatchModule natively; Lift must return it as-is.
type nativeBatch struct{ recorder }

func (n *nativeBatch) ProcessBatch(b *Batch, now clock.Time) ([]Emission, clock.Duration) {
	out := make([]Emission, 0, b.Len())
	for _, t := range b.Tuples {
		out = append(out, Emit(t))
	}
	return out, clock.Duration(b.Len()) * n.cost
}

func TestLiftPassesNativeBatchModulesThrough(t *testing.T) {
	n := &nativeBatch{}
	if got := Lift(n); got != BatchModule(n) {
		t.Fatalf("Lift(native) = %T, want the module itself", got)
	}
}

func TestLiftShimProcessesSequentially(t *testing.T) {
	r := &recorder{cost: 3 * clock.Microsecond, dropSpan: tuple.Single(1)}
	bm := Lift(r)

	keep1 := tuple.NewSingleton(2, 0, tuple.Row{})
	drop := tuple.NewSingleton(2, 1, tuple.Row{})
	keep2 := tuple.NewSingleton(2, 0, tuple.Row{})
	start := clock.Time(0).Add(10 * clock.Microsecond)
	ems, cost := bm.ProcessBatch(BatchOf(keep1, drop, keep2), start)

	if want := 3 * 3 * clock.Microsecond; cost != want {
		t.Fatalf("batch cost = %v, want summed per-tuple cost %v", cost, want)
	}
	if len(ems) != 2 || ems[0].T != keep1 || ems[1].T != keep2 {
		t.Fatalf("emissions = %v, want keep1 and keep2 in order", ems)
	}
	// Each tuple is served at the virtual time the previous one completed.
	want := []clock.Time{start, start.Add(3 * clock.Microsecond), start.Add(6 * clock.Microsecond)}
	if len(r.nows) != len(want) {
		t.Fatalf("served %d tuples, want %d", len(r.nows), len(want))
	}
	for i, at := range r.nows {
		if at != want[i] {
			t.Fatalf("tuple %d served at %v, want %v", i, at, want[i])
		}
	}
	// The shim must keep exposing the wrapped module's identity.
	if bm.Name() != "recorder" || bm.Parallel() != 1 {
		t.Fatalf("shim identity = %q/%d, want recorder/1", bm.Name(), bm.Parallel())
	}
}

func TestLiftShimBatchOfOneMatchesProcess(t *testing.T) {
	single := &recorder{cost: 2 * clock.Microsecond}
	tp := tuple.NewSingleton(2, 0, tuple.Row{})
	at := clock.Time(0).Add(7 * clock.Microsecond)
	wantEms, wantCost := single.Process(tp, at)

	batched := &recorder{cost: 2 * clock.Microsecond}
	gotEms, gotCost := Lift(batched).ProcessBatch(BatchOf(tp), at)

	if gotCost != wantCost {
		t.Fatalf("cost = %v, want %v", gotCost, wantCost)
	}
	if len(gotEms) != len(wantEms) || gotEms[0].T != wantEms[0].T {
		t.Fatalf("emissions differ: %v vs %v", gotEms, wantEms)
	}
	if batched.nows[0] != single.nows[0] {
		t.Fatalf("service time differs: %v vs %v", batched.nows[0], single.nows[0])
	}
}
