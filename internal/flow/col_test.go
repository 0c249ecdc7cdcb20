package flow

import (
	"slices"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// mixedValues is one of every representable row value: ints, strings
// (dictionary-encoded), nulls, and EOT markers.
var mixedValues = []value.V{
	value.NewInt(7),
	value.NewStr("alpha"),
	value.NewNull(),
	value.NewEOT(),
	value.NewInt(-3),
	value.NewStr("alpha"), // repeated: one dictionary code, two rows
	value.NewStr("beta"),
}

func TestVecAppendValueRoundTrip(t *testing.T) {
	cases := [][]value.V{
		{value.NewInt(1), value.NewInt(2), value.NewInt(3)},
		{value.NewStr("x"), value.NewStr("y"), value.NewStr("x")},
		{value.NewNull(), value.NewInt(5)},     // null first, kind claimed late
		{value.NewEOT(), value.NewStr("z")},    // EOT first
		{value.NewInt(1), value.NewStr("mix")}, // kind conflict: boxed fallback
		{value.NewNull(), value.NewNull()},     // never claims a kind
		mixedValues,                            // everything at once: boxed
	}
	for ci, vals := range cases {
		var v Vec
		for _, x := range vals {
			v.AppendV(x)
		}
		if v.Len() != len(vals) {
			t.Fatalf("case %d: Len = %d, want %d", ci, v.Len(), len(vals))
		}
		for i, want := range vals {
			if got := v.ValueAt(i); !got.Equal(want) || got.K != want.K {
				t.Errorf("case %d row %d: ValueAt = %+v, want %+v", ci, i, got, want)
			}
		}
	}
}

func TestVecKindAdaptation(t *testing.T) {
	var v Vec
	v.AppendV(value.NewNull())
	v.AppendV(value.NewInt(4))
	if v.Kind != value.Int {
		t.Fatalf("int after null: Kind = %v, want Int", v.Kind)
	}
	v.AppendV(value.NewStr("boom"))
	if v.Kind != KindBoxed {
		t.Fatalf("str after int: Kind = %#x, want KindBoxed", v.Kind)
	}
	// Boxed storage must preserve all earlier rows.
	for i, want := range []value.V{value.NewNull(), value.NewInt(4), value.NewStr("boom")} {
		if got := v.ValueAt(i); !got.Equal(want) {
			t.Errorf("boxed row %d: %+v want %+v", i, got, want)
		}
	}
}

func TestVecBitmaps(t *testing.T) {
	var v Vec
	// Row 70 forces a second bitmap word.
	for i := 0; i < 100; i++ {
		switch {
		case i == 3 || i == 70:
			v.AppendV(value.NewNull())
		case i == 5 || i == 67:
			v.AppendV(value.NewEOT())
		default:
			v.AppendV(value.NewInt(int64(i)))
		}
	}
	for i := 0; i < 100; i++ {
		got := v.ValueAt(i)
		switch {
		case i == 3 || i == 70:
			if got.K != value.Null {
				t.Errorf("row %d: %+v want null", i, got)
			}
		case i == 5 || i == 67:
			if !got.IsEOT() {
				t.Errorf("row %d: %+v want EOT", i, got)
			}
		default:
			if got.K != value.Int || got.I != int64(i) {
				t.Errorf("row %d: %+v want int %d", i, got, i)
			}
		}
	}
}

// TestVecHashIdentity pins the columnar hash contract: Hash64At and
// HashValInto must agree byte-for-byte with the boxed value hashes, since
// SteM bucket placement mixes both paths.
func TestVecHashIdentity(t *testing.T) {
	var v Vec
	for _, x := range mixedValues {
		v.AppendV(x)
	}
	for i := range mixedValues {
		want := v.ValueAt(i).Hash64()
		if got := v.Hash64At(i); got != want {
			t.Errorf("row %d: Hash64At = %#x, want %#x", i, got, want)
		}
		wantC := v.ValueAt(i).HashInto(12345)
		if got := v.HashValInto(12345, i); got != wantC {
			t.Errorf("row %d: HashValInto = %#x, want %#x", i, got, wantC)
		}
	}
	// Dictionary path specifically (no boxed fallback).
	var s Vec
	s.AppendV(value.NewStr("a"))
	s.AppendV(value.NewStr("b"))
	s.AppendV(value.NewStr("a"))
	for i := 0; i < 3; i++ {
		if got, want := s.Hash64At(i), s.ValueAt(i).Hash64(); got != want {
			t.Errorf("dict row %d: %#x want %#x", i, got, want)
		}
	}
}

func TestColBatchSelection(t *testing.T) {
	cb := GetColBatch(1)
	cb.Span = tuple.Single(0)
	tab := cb.EnsureCols(0, 1)
	for i := 0; i < 5; i++ {
		tab.Cols[0].AppendV(value.NewInt(int64(i)))
	}
	cb.SetRowCount(5)
	if cb.Rows() != 5 || cb.RowAt(2) != 2 {
		t.Fatalf("no selection: Rows=%d RowAt(2)=%d", cb.Rows(), cb.RowAt(2))
	}
	sel := cb.EnsureSel()
	if len(sel) != 5 {
		t.Fatalf("EnsureSel len = %d", len(sel))
	}
	// Filter in place: keep odd rows.
	out := sel[:0]
	for _, i := range sel {
		if i%2 == 1 {
			out = append(out, i)
		}
	}
	cb.Sel = out
	if cb.Rows() != 2 || cb.RowAt(0) != 1 || cb.RowAt(1) != 3 {
		t.Fatalf("filtered: Rows=%d RowAt=%d,%d", cb.Rows(), cb.RowAt(0), cb.RowAt(1))
	}
}

func TestColBatchPoolRetainsCapacity(t *testing.T) {
	cb := GetColBatch(2)
	cb.Span = tuple.Single(0)
	tab := cb.EnsureCols(0, 1)
	for i := 0; i < 64; i++ {
		tab.Cols[0].AppendV(value.NewInt(int64(i)))
	}
	cb.SetRowCount(64)
	cb.EnsureSel()
	PutColBatch(cb)
	// The pool is not guaranteed to hand the same shell back, but a reset
	// batch must be empty and safe to refill whatever its capacity reuse.
	cb2 := GetColBatch(2)
	if cb2.Rows() != 0 || cb2.Sel != nil || len(cb2.Visits) != 0 {
		t.Fatalf("pooled batch not reset: rows=%d sel=%v visits=%v", cb2.Rows(), cb2.Sel, cb2.Visits)
	}
	cb2.Span = tuple.Single(1)
	tab = cb2.EnsureCols(1, 1)
	tab.Cols[0].AppendV(value.NewStr("fresh"))
	cb2.SetRowCount(1)
	if got := cb2.Value(1, 0, 0); !got.Equal(value.NewStr("fresh")) {
		t.Fatalf("refilled value = %+v", got)
	}
	PutColBatch(cb2)
}

// TestColBatchResetKeepsSelection: a reset keeps the selection vector's
// storage whether or not the cycle before it installed a selection, so a
// batch that routes once without filtering does not lose it.
func TestColBatchResetKeepsSelection(t *testing.T) {
	var cb ColBatch
	fill := func() {
		cb.shape(1)
		cb.Span = tuple.Single(0)
		tab := cb.EnsureCols(0, 1)
		for i := 0; i < 64; i++ {
			tab.Cols[0].AppendV(value.NewInt(int64(i)))
		}
		cb.SetRowCount(64)
	}
	fill()
	first := cb.EnsureSel()
	cb.Reset()
	fill() // no selection this cycle
	cb.Reset()
	fill()
	if got := cb.EnsureSel(); &got[0] != &first[0] {
		t.Error("EnsureSel after a cycle without a selection allocated a new vector")
	}
}

func TestColBatchHeaderCopyAndMerge(t *testing.T) {
	src := GetColBatch(2)
	src.Span = tuple.Single(0)
	src.Done = 3
	src.Built = tuple.Single(0)
	src.HasMatches = true
	src.LastMatchTS = 42
	src.Visits = []uint16{1, 2}
	tab := src.EnsureCols(0, 2)
	for i := 0; i < 4; i++ {
		tab.Cols[0].AppendV(value.NewInt(int64(i)))
		tab.Cols[1].AppendV(value.NewStr("s"))
		src.SetTS(0, i, tuple.Timestamp(100+i))
	}
	src.SetRowCount(4)

	dst := GetColBatch(2)
	dst.CopyHeaderFrom(src)
	if dst.NTables != src.NTables || dst.Span != src.Span || dst.Done != src.Done ||
		dst.Built != src.Built || dst.HasMatches != src.HasMatches ||
		dst.LastMatchTS != src.LastMatchTS || !slices.Equal(dst.Visits, src.Visits) {
		t.Fatal("CopyHeaderFrom did not copy the header")
	}
	// Visits must be a private clone: split batches advance independently.
	dst.Visits[0]++
	if src.Visits[0] != 1 {
		t.Fatal("CopyHeaderFrom aliased Visits")
	}
	dst.Visits[0]--

	// Gather only src's live rows (selection {1,3}) and keep TS alignment.
	src.Sel = []int32{1, 3}
	for k := 0; k < src.Rows(); k++ {
		dst.AppendRowFrom(src, src.RowAt(k))
	}
	if dst.N() != 2 {
		t.Fatalf("merged rows = %d", dst.N())
	}
	if got := dst.Value(0, 0, 0); got.I != 1 {
		t.Errorf("merged row 0 = %+v", got)
	}
	if got := dst.TSAt(0, 1); got != 103 {
		t.Errorf("merged TS = %d, want 103", got)
	}
	// Unset timestamps read as InfTS (lazily grown TS vectors).
	if got := dst.TSAt(1, 0); got != tuple.InfTS {
		t.Errorf("absent TS = %d, want InfTS", got)
	}
}

func TestColBatchMaterializeRoundTrip(t *testing.T) {
	cb := GetColBatch(2)
	cb.Span = tuple.Single(0).With(1)
	cb.Done = 1
	cb.Built = tuple.Single(1)
	cb.HasMatches = true
	cb.Visits = []uint16{0, 5, 0}
	t0 := cb.EnsureCols(0, 2)
	t1 := cb.EnsureCols(1, 1)
	rows := [][]value.V{
		{value.NewInt(10), value.NewStr("a"), value.NewStr("k")},
		{value.NewNull(), value.NewStr("b"), value.NewEOT()},
		{value.NewInt(12), value.NewNull(), value.NewStr("k")},
	}
	for i, r := range rows {
		t0.Cols[0].AppendV(r[0])
		t0.Cols[1].AppendV(r[1])
		t1.Cols[0].AppendV(r[2])
		cb.SetTS(0, i, tuple.Timestamp(i+1))
		cb.SetTS(1, i, tuple.Timestamp(50+i))
	}
	cb.SetRowCount(3)
	cb.Sel = []int32{0, 2} // drop the middle row

	ts := cb.Materialize()
	if len(ts) != 2 {
		t.Fatalf("materialized %d tuples, want 2", len(ts))
	}
	for k, i := range []int{0, 2} {
		tp := ts[k]
		if tp.Span != cb.Span || tp.Done != cb.Done || tp.Built != cb.Built {
			t.Errorf("tuple %d header: %+v", k, tp)
		}
		if tp.LastProbeMatches != 1 {
			t.Errorf("tuple %d LastProbeMatches = %d", k, tp.LastProbeMatches)
		}
		wantRow := rows[i]
		got := []value.V{tp.Comp[0][0], tp.Comp[0][1], tp.Comp[1][0]}
		for c := range wantRow {
			if !got[c].Equal(wantRow[c]) || got[c].K != wantRow[c].K {
				t.Errorf("tuple %d col %d: %+v want %+v", k, c, got[c], wantRow[c])
			}
		}
		if tp.CompTS[0] != tuple.Timestamp(i+1) || tp.CompTS[1] != tuple.Timestamp(50+i) {
			t.Errorf("tuple %d TS: %v", k, tp.CompTS)
		}
		// Private visit clone per tuple.
		tp.Visits[1]++
		if cb.Visits[1] != 5 {
			t.Fatal("Materialize aliased Visits")
		}
		tp.Visits[1]--
	}
}

func TestColBatchRowTS(t *testing.T) {
	cb := GetColBatch(2)
	cb.Span = tuple.Single(0).With(1)
	cb.EnsureCols(0, 1)
	cb.EnsureCols(1, 1)
	cb.Tabs[0].Cols[0].AppendV(value.NewInt(1))
	cb.Tabs[1].Cols[0].AppendV(value.NewInt(2))
	cb.SetRowCount(1)
	if got := cb.RowTS(0); got != tuple.InfTS {
		t.Fatalf("unbuilt RowTS = %d, want InfTS", got)
	}
	cb.SetTS(0, 0, 7)
	cb.SetTS(1, 0, 9)
	if got := cb.RowTS(0); got != 9 {
		t.Fatalf("RowTS = %d, want 9 (max component)", got)
	}
}

// TestColTableSrcDropped: source rows ride a batch only while they are
// parallel to its physical rows — a selection keeps them, a merge into the
// batch and a Reset drop them.
func TestColTableSrcDropped(t *testing.T) {
	rows := []tuple.Row{{value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(3)}}
	fill := func() *ColBatch {
		cb := GetColBatch(1)
		cb.Span = tuple.Single(0)
		cb.LoadRows(0, 1, rows)
		return cb
	}

	cb := fill()
	cb.Sel = cb.EnsureSel()[1:]
	if src := cb.Tabs[0].Src; len(src) != cb.N() || &src[cb.RowAt(0)][0] != &rows[1][0] {
		t.Fatal("a selection vector must leave Src parallel to the physical rows")
	}

	dst := fill()
	dst.AppendRowFrom(cb, 2)
	if dst.Tabs[0].Src != nil {
		t.Fatal("AppendRowFrom must drop the destination's Src: its rows no longer have one source")
	}
	if cb.Tabs[0].Src == nil {
		t.Fatal("AppendRowFrom must leave the source batch's Src alone")
	}

	cb.Reset()
	cb.shape(1)
	if cb.Tabs[0].Src != nil {
		t.Fatal("Reset must drop Src: a pooled batch must not pin a table's rows")
	}
}
