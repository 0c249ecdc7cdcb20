package am

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

func row(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

// fixtureQ builds R(k,a) ⋈ S(x,y) with a scan on R and an index on S.x,
// optionally with a selection on S.y.
func fixtureQ(t *testing.T, withSel bool) *query.Q {
	t.Helper()
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20), row(3, 10)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100), row(10, 999), row(20, 200)})
	preds := []pred.P{pred.EquiJoin(0, 1, 1, 0)}
	if withSel {
		preds = append(preds, pred.Selection(1, 1, pred.Lt, value.NewInt(500)))
	}
	return query.MustNew([]*schema.Table{rT, sT}, preds,
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData,
				ScanSpec: source.ScanSpec{InterArrival: 2 * clock.Millisecond}},
			{Table: 1, Kind: query.Index, Data: sData,
				IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: 50 * clock.Millisecond, Parallel: 1}},
		})
}

func TestScanEmitsRowsPacedPlusEOT(t *testing.T) {
	q := fixtureQ(t, false)
	a, err := New(Config{Q: q, AMIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	seed := tuple.NewSeed(2, 0)
	out, _ := a.Process(seed, 0)
	if len(out) != 4 { // 3 rows + EOT
		t.Fatalf("scan emitted %d, want 4", len(out))
	}
	for i := 0; i < 3; i++ {
		if out[i].T.EOT != nil || !out[i].T.IsSingleton() {
			t.Errorf("emission %d is not a data singleton", i)
		}
		if out[i].Delay != clock.Duration(i+1)*2*clock.Millisecond {
			t.Errorf("row %d delay = %v", i, out[i].Delay)
		}
	}
	last := out[3]
	if last.T.EOT == nil || len(last.T.EOT.BoundCols) != 0 {
		t.Error("scan must end with a full EOT")
	}
	if st := a.Stats(); st.SeedsServed != 1 || st.RowsOut != 3 || st.EOTsOut != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTable1_IndexProbe: "Asynchronously return all matches for t; return
// EOT after all matches have been returned; asynchronously bounce back t."
func TestTable1_IndexProbe(t *testing.T) {
	q := fixtureQ(t, false)
	a, err := New(Config{Q: q, AMIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := tuple.NewSingleton(2, 0, row(1, 10))
	out, cost := a.Process(r, 0)
	if cost < 50*clock.Millisecond {
		t.Errorf("lookup cost %v must include the source latency", cost)
	}
	var matches, eots int
	var bounced bool
	for _, e := range out {
		switch {
		case e.T == r:
			bounced = true
		case e.T.EOT != nil:
			eots++
			if len(e.T.EOT.BoundCols) != 1 || e.T.EOT.BoundCols[0] != 0 {
				t.Error("EOT must encode the probing predicate's bound columns")
			}
			if !e.T.Comp[1][0].Equal(value.NewInt(10)) || !e.T.Comp[1][1].IsEOT() {
				t.Errorf("EOT row = %v; bound fields carry values, others the EOT marker", e.T.Comp[1])
			}
		default:
			matches++
		}
	}
	if matches != 2 || eots != 1 || !bounced {
		t.Errorf("probe: matches=%d eots=%d bounced=%v, want 2/1/true", matches, eots, bounced)
	}
	if !r.AMProbed {
		t.Error("probe must mark AMProbed")
	}
}

// TestRendezvousSuppression: a second probe with the same key issues no new
// remote lookup — the SteM cache already has (or will have) the matches.
func TestRendezvousSuppression(t *testing.T) {
	q := fixtureQ(t, false)
	a, err := New(Config{Q: q, AMIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1 := tuple.NewSingleton(2, 0, row(1, 10))
	r3 := tuple.NewSingleton(2, 0, row(3, 10)) // same a=10
	a.Process(r1, 0)
	out, cost := a.Process(r3, 0)
	if len(out) != 1 || out[0].T != r3 {
		t.Fatalf("suppressed probe must only bounce, got %v", out)
	}
	if cost >= 50*clock.Millisecond {
		t.Error("suppressed probe must not pay the remote latency")
	}
	if !r3.AMProbed {
		t.Error("suppressed probe still counts as AM-probed (ProbeCompletion)")
	}
	st := a.Stats()
	if st.Probes != 1 || st.DedupProbes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMatchFiltering: the AM applies predicates evaluable on (probe ∪ match)
// after the lookup (Table 1).
func TestMatchFiltering(t *testing.T) {
	q := fixtureQ(t, true) // adds S.y < 500: the (10,999) row must be filtered
	a, err := New(Config{Q: q, AMIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := tuple.NewSingleton(2, 0, row(1, 10))
	out, _ := a.Process(r, 0)
	matches := 0
	for _, e := range out {
		if e.T != r && e.T.EOT == nil {
			matches++
			if !e.T.Comp[1][1].Equal(value.NewInt(100)) {
				t.Errorf("unfiltered match %v", e.T)
			}
		}
	}
	if matches != 1 {
		t.Errorf("matches = %d, want 1 after selection filtering", matches)
	}
}

// TestApplySelectionsMarksDone: with pushdown enabled the emitted singletons
// carry the selection's done bit.
func TestApplySelectionsMarksDone(t *testing.T) {
	q := fixtureQ(t, true)
	a, err := New(Config{Q: q, AMIndex: 1, ApplySelections: true})
	if err != nil {
		t.Fatal(err)
	}
	r := tuple.NewSingleton(2, 0, row(1, 10))
	out, _ := a.Process(r, 0)
	for _, e := range out {
		if e.T != r && e.T.EOT == nil {
			if !e.T.Done.Has(1) {
				t.Error("pushdown selection not marked done")
			}
		}
	}
	// Scan side too.
	a0, err := New(Config{Q: q, AMIndex: 0, ApplySelections: true})
	if err != nil {
		t.Fatal(err)
	}
	out0, _ := a0.Process(tuple.NewSeed(2, 0), 0)
	if len(out0) != 4 { // selections on S don't affect R's scan
		t.Errorf("scan with pushdown emitted %d", len(out0))
	}
}

func TestSeedToIndexAMPanics(t *testing.T) {
	q := fixtureQ(t, false)
	a, _ := New(Config{Q: q, AMIndex: 1})
	defer func() {
		if recover() == nil {
			t.Error("seed to index AM must panic")
		}
	}()
	a.Process(tuple.NewSeed(2, 1), 0)
}

func TestScanWithStallDelaysTail(t *testing.T) {
	q := fixtureQ(t, false)
	q.AMs[0].ScanSpec.Stalls = []source.Stall{{AfterRows: 1, For: clock.Second}}
	a, err := New(Config{Q: q, AMIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := a.Process(tuple.NewSeed(2, 0), 0)
	if out[1].Delay <= clock.Second {
		t.Errorf("post-stall row delay %v must include the stall", out[1].Delay)
	}
}

// TestScanColsCarriesSourceRows: an unpaced scan's columnar batches offer the
// table's own rows to whoever stores rows, chunk by chunk and without a copy.
func TestScanColsCarriesSourceRows(t *testing.T) {
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	rows := make([]tuple.Row, flow.ChunkRows+10)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%7))
	}
	q := query.MustNew([]*schema.Table{rT}, nil,
		[]query.AMDecl{{Table: 0, Kind: query.Scan, Data: source.MustTable(rT, rows)}})
	a, err := New(Config{Q: q, AMIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, cols, _ := a.ProcessColBatch(flow.BatchOf(tuple.NewSeed(1, 0)), 0)
	if len(cols) != 2 {
		t.Fatalf("scan emitted %d columnar batches, want 2", len(cols))
	}
	at := 0
	for _, em := range cols {
		src := em.B.Tabs[0].Src
		if len(src) != em.B.N() {
			t.Fatalf("batch of %d rows carries %d source rows", em.B.N(), len(src))
		}
		for i := range src {
			if &src[i][0] != &rows[at][0] || !em.B.Value(0, 0, i).Equal(rows[at][0]) {
				t.Fatalf("source row %d of the scan is not table row %d", at, at)
			}
			at++
		}
	}
	if at != len(rows) {
		t.Fatalf("batches cover %d rows, want %d", at, len(rows))
	}
}
