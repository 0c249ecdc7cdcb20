package exec

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/join"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Stuck returns the number of tuples dropped with no applicable stage other
// than scan EOTs (which baselines discard by design).
func (b *Baseline) Stuck() uint64 { return b.stuck.Load() }

func row(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func threeTableQ(t *testing.T) *query.Q {
	t.Helper()
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	tT := schema.MustTable("T", schema.IntCol("z"), schema.IntCol("w"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20), row(3, 10)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 5), row(20, 6), row(10, 6)})
	tData := source.MustTable(tT, []tuple.Row{row(5, 50), row(6, 60), row(6, 61)})
	return query.MustNew([]*schema.Table{rT, sT, tT},
		[]pred.P{
			pred.EquiJoin(0, 1, 1, 0),
			pred.EquiJoin(1, 1, 2, 0),
			pred.Selection(0, 0, pred.Le, value.NewInt(2)),
		},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 2, Kind: query.Scan, Data: tData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
		})
}

func runBaseline(t *testing.T, b *Baseline, q *query.Q) {
	t.Helper()
	sim := eddy.NewSim(b)
	outs, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	want := oracle.Compute(q)
	missing, extra := oracle.Diff(want, got)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("missing=%v extra=%v (got %d want %d)", missing, extra, len(got), len(want))
	}
}

func TestStaticLeftDeepSHJPipeline(t *testing.T) {
	q := threeTableQ(t)
	stages, err := LeftDeepSHJ(q, []int{0, 1, 2}, eddy.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Q: q, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	runBaseline(t, b, q)
	if b.Stuck() != 0 {
		t.Errorf("baseline stuck %d", b.Stuck())
	}
}

func TestJoinEddyAdaptiveSelections(t *testing.T) {
	q := threeTableQ(t)
	stages, err := LeftDeepSHJ(q, []int{0, 1, 2}, eddy.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Q: q, Stages: stages, AdaptiveSelections: true,
		Policy: policy.NewLottery(5)})
	if err != nil {
		t.Fatal(err)
	}
	runBaseline(t, b, q)
}

func TestAlternativeJoinOrder(t *testing.T) {
	q := threeTableQ(t)
	// Right-deep order T, S, R also works.
	stages, err := LeftDeepSHJ(q, []int{2, 1, 0}, eddy.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Q: q, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	runBaseline(t, b, q)
}

func TestStaticWithIndexJoinStage(t *testing.T) {
	// R ⋈ S with S index-only: scan R feeds an IndexJoin stage.
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20), row(3, 10)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100), row(20, 200)})
	q := query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 1, Kind: query.Index, Data: sData,
				IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: 10 * clock.Millisecond}},
		})
	ij, err := join.NewIndexJoin(join.IndexJoinConfig{
		Q: q, ProbeSpan: tuple.Single(0), Table: 1, Data: sData, KeyCols: []int{0},
		Latency: 10 * clock.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Q: q, Stages: []join.Stage{ij}})
	if err != nil {
		t.Fatal(err)
	}
	runBaseline(t, b, q)
}

func TestLeftDeepSHJRejectsBadOrder(t *testing.T) {
	q := threeTableQ(t)
	if _, err := LeftDeepSHJ(q, []int{0, 2, 1}, eddy.DefaultProfile()); err == nil {
		t.Error("order with no connecting predicate must be rejected")
	}
	if _, err := LeftDeepSHJ(q, []int{0}, eddy.DefaultProfile()); err == nil {
		t.Error("partial order must be rejected")
	}
}
