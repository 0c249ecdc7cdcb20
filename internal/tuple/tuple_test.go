package tuple

import (
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func row(vs ...int64) Row {
	r := make(Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func TestTableSetOperations(t *testing.T) {
	s := Single(0).With(2).With(5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	if got := s.Members(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("Members = %v", got)
	}
	if s.String() != "{0,2,5}" {
		t.Errorf("String = %q", s.String())
	}
	if !All(3).Contains(Single(2)) || All(3).Has(3) {
		t.Error("All(3) wrong")
	}
	if !s.Intersects(Single(2)) || s.Intersects(Single(1)) {
		t.Error("Intersects wrong")
	}
}

func TestTableSetAlgebraProperties(t *testing.T) {
	union := func(a, b uint16) bool {
		sa, sb := TableSet(a), TableSet(b)
		u := sa.Union(sb)
		return u.Contains(sa) && u.Contains(sb) && u.Count() <= sa.Count()+sb.Count()
	}
	if err := quick.Check(union, nil); err != nil {
		t.Error(err)
	}
	members := func(a uint16) bool {
		s := TableSet(a)
		back := TableSet(0)
		for _, m := range s.Members() {
			back = back.With(m)
		}
		return back == s && len(s.Members()) == s.Count()
	}
	if err := quick.Check(members, nil); err != nil {
		t.Error(err)
	}
}

func TestPredSet(t *testing.T) {
	p := SinglePred(1).With(3)
	if !p.Has(1) || !p.Has(3) || p.Has(0) {
		t.Error("PredSet membership wrong")
	}
	if !AllPreds(4).Contains(p) || AllPreds(2).Contains(p) {
		t.Error("AllPreds containment wrong")
	}
}

func TestSingletonAndSpan(t *testing.T) {
	s := NewSingleton(3, 1, row(7, 8))
	if !s.IsSingleton() || s.SingleTable() != 1 {
		t.Fatal("singleton misclassified")
	}
	if s.Span != Single(1) {
		t.Errorf("Span = %v", s.Span)
	}
	if s.TS() != InfTS {
		t.Error("unbuilt singleton must have infinite timestamp")
	}
	s.CompTS[1] = 42
	if s.TS() != 42 {
		t.Errorf("TS = %d, want 42", s.TS())
	}
	if got := s.Value(1, 1); !got.Equal(value.NewInt(8)) {
		t.Errorf("Value = %v", got)
	}
}

func TestConcat(t *testing.T) {
	a := NewSingleton(3, 0, row(1))
	a.CompTS[0] = 5
	a.Built = Single(0)
	a.Done = SinglePred(0)
	b := NewSingleton(3, 2, row(9))
	b.CompTS[2] = 7
	b.Built = Single(2)
	b.Done = SinglePred(1)

	c := a.Concat(b)
	if c.Span != Single(0).With(2) {
		t.Errorf("Span = %v", c.Span)
	}
	if c.TS() != 7 {
		t.Errorf("TS = %d, want max(5,7)=7", c.TS())
	}
	if !c.Done.Has(0) || !c.Done.Has(1) {
		t.Error("done bits not merged")
	}
	if !c.Built.Contains(Single(0).With(2)) {
		t.Error("built bits not merged")
	}
	// Originals untouched.
	if a.Span != Single(0) || b.Span != Single(2) {
		t.Error("Concat mutated inputs")
	}
}

func TestConcatPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Concat of overlapping spans must panic")
		}
	}()
	a := NewSingleton(2, 0, row(1))
	b := NewSingleton(2, 0, row(2))
	a.Concat(b)
}

func TestConcatTimestampProperties(t *testing.T) {
	f := func(ts0, ts1 uint32) bool {
		a := NewSingleton(2, 0, row(1))
		b := NewSingleton(2, 1, row(2))
		a.CompTS[0] = Timestamp(ts0)
		b.CompTS[1] = Timestamp(ts1)
		c := a.Concat(b)
		max := Timestamp(ts0)
		if Timestamp(ts1) > max {
			max = Timestamp(ts1)
		}
		return c.TS() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyInjective(t *testing.T) {
	f := func(a, b []int64) bool {
		ra, rb := row(a...), row(b...)
		return (ra.Key() == rb.Key()) == ra.Equal(rb)
	}
	cfg := &quick.Config{MaxCount: 1000, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestResultKeyIgnoresArrivalOrder(t *testing.T) {
	a := NewSingleton(2, 0, row(1))
	b := NewSingleton(2, 1, row(2))
	ab := a.Concat(b)
	ba := b.Concat(a)
	if ab.ResultKey() != ba.ResultKey() {
		t.Errorf("ResultKey differs by concat order: %q vs %q", ab.ResultKey(), ba.ResultKey())
	}
}

func TestSeedAndEOT(t *testing.T) {
	s := NewSeed(2, 3)
	if !s.Seed || s.SeedAM != 3 {
		t.Error("seed fields wrong")
	}
	e := NewEOT(2, 1, Row{value.NewInt(5), value.NewEOT()}, []int{0})
	if e.EOT == nil || e.EOT.Table != 1 || len(e.EOT.BoundCols) != 1 {
		t.Error("EOT fields wrong")
	}
	if e.String() == "" || s.String() == "" {
		t.Error("String must render")
	}
}

func TestSingleTablePanicsOnComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SingleTable on composite must panic")
		}
	}()
	a := NewSingleton(2, 0, row(1)).Concat(NewSingleton(2, 1, row(2)))
	a.SingleTable()
}

// TestEachMatchesMembers: the allocation-free iterator visits exactly the
// Members sequence, and supports early exit.
func TestEachMatchesMembers(t *testing.T) {
	sets := []TableSet{0, Single(0), Single(3).With(7), All(5), ^TableSet(0)}
	for _, s := range sets {
		var got []int
		for i := range s.Each {
			got = append(got, i)
		}
		want := s.Members()
		if len(got) != len(want) {
			t.Fatalf("Each over %s yielded %v, want %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Each over %s yielded %v, want %v", s, got, want)
			}
		}
	}
	n := 0
	for range All(8).Each {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early exit ran %d iterations, want 3", n)
	}
}

func TestFirst(t *testing.T) {
	if got := Single(5).With(9).First(); got != 5 {
		t.Errorf("First = %d, want 5", got)
	}
}

// TestRowHash64 ties the row hash to value-level chaining and checks
// HashCols projects correctly.
func TestRowHash64(t *testing.T) {
	r := Row{value.NewInt(1), value.NewStr("x"), value.NewInt(2)}
	h := value.HashSeed
	for _, v := range r {
		h = v.HashInto(h)
	}
	if r.Hash64() != h {
		t.Error("Row.Hash64 does not chain value hashes")
	}
	if r.HashCols([]int{0, 2}) != (Row{r[0], r[2]}).Hash64() {
		t.Error("HashCols differs from hashing the projected row")
	}
	if r.Hash64() == (Row{r[1], r[0], r[2]}).Hash64() {
		t.Error("row hash ignores order")
	}
}

// TestConcatRowMatchesConcat: ConcatRow must produce exactly the tuple that
// Concat with a built singleton produces, and ConcatRowInto must reuse the
// destination's slices.
func TestConcatRowMatchesConcat(t *testing.T) {
	base := NewSingleton(3, 0, Row{value.NewInt(1)})
	base.CompTS[0] = 5
	base.Built = Single(0)
	base.Done = SinglePred(2)

	row := Row{value.NewInt(9)}
	m := NewSingleton(3, 2, row)
	m.CompTS[2] = 7
	m.Built = Single(2)

	want := base.Concat(m)
	got := base.ConcatRowInto(nil, 2, row, 7)
	if got.Span != want.Span || got.Done != want.Done || got.Built != want.Built {
		t.Fatalf("ConcatRowInto state = %v/%v/%v, want %v/%v/%v",
			got.Span, got.Done, got.Built, want.Span, want.Done, want.Built)
	}
	for i := range want.Comp {
		if !got.Comp[i].Equal(want.Comp[i]) || got.CompTS[i] != want.CompTS[i] {
			t.Fatalf("component %d differs", i)
		}
	}

	reused := base.ConcatRowInto(got, 1, Row{value.NewInt(3)}, 8)
	if reused != got {
		t.Error("ConcatRowInto did not reuse the destination tuple")
	}
	if reused.Span != Single(0).With(1) || reused.CompTS[1] != 8 {
		t.Errorf("reused concat has span %v ts %d", reused.Span, reused.CompTS[1])
	}
	if reused.Comp[2] != nil {
		t.Error("reused concat leaked a stale component")
	}

	defer func() {
		if recover() == nil {
			t.Error("ConcatRowInto onto a spanned table must panic")
		}
	}()
	base.ConcatRowInto(nil, 0, row, 1)
}
