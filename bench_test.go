package stems

// The benchmark harness regenerates every figure of the paper's evaluation
// under `go test -bench`, at reduced scale so a full sweep stays fast, plus
// ablation benches for the design choices DESIGN.md calls out (routing
// policies and the two engines). Reported custom metrics carry the figure-level result:
// virtual completion seconds and results produced.

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
	"repro/internal/workload"
)

// benchResult reports an experiment's virtual time and output size as bench
// metrics.
func reportResult(b *testing.B, res *experiments.Result) {
	b.Helper()
	if len(res.Series) > 0 {
		b.ReportMetric(res.Series[0].Final(), "results")
		b.ReportMetric(res.Series[0].End().Seconds(), "virtual-s")
	}
}

// ---------------------------------------------------------------------------
// Figure benches: each regenerates one figure per iteration.

func BenchmarkFigure1_ThreeArchitectures(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Fig1(experiments.Fig1Config{Rows: 120})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkFigure2_NAryVsPipeline(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Fig2(experiments.Fig1Config{Rows: 120})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkFigure7_Q1IndexJoinVsSteMs(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Fig7(experiments.Fig7Config{RRows: 300, DistinctA: 75})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkFigure8_Q4Hybridization(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Fig8(experiments.Fig8Config{Rows: 300})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkExtCompetitiveAMs(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Competitive(experiments.CompetitiveConfig{Rows: 150, DistinctA: 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkExtSpanningTree(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Spanning(experiments.SpanningConfig{Rows: 60, StallAfter: 10, StallFor: 5 * clock.Second})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

func BenchmarkExtSelectionReorder(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.Reorder(experiments.ReorderConfig{Rows: 400})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, last)
}

// BenchmarkTable3_SourceGeneration measures the synthetic workload
// generators backing Table 3.
func BenchmarkTable3_SourceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := workload.RTable(workload.RSpec{Rows: 1000, DistinctA: 250, Seed: 1})
		s := workload.STable(250, 0)
		t := workload.TTable(1000)
		if len(r.Rows)+len(s.Rows)+len(t.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// ---------------------------------------------------------------------------
// SteM dictionary benches.

func benchQ(rows int) *query.Q {
	rData := workload.RTable(workload.RSpec{Rows: rows, DistinctA: rows / 4, Seed: 1})
	sData := workload.STable(rows/4, 0)
	return query.MustNew(
		[]*schema.Table{rData.Schema, sData.Schema},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Microsecond}},
			{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Microsecond}},
		},
	)
}

func BenchmarkDict_Hash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := eddy.NewRouter(benchQ(512), eddy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eddy.NewSim(r).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteMBuildCols is the private build the serving path runs: one
// 1,024-row columnar scan batch, source rows attached, stored into a SteM
// whose dictionary is warm (Reset clears it in place). allocs/op is the
// number to watch — the emission slice and nothing else.
func BenchmarkSteMBuildCols(b *testing.B) {
	const rows = 1024
	q := benchQ(rows)
	src := q.AMs[0].Data.Rows
	cb := flow.GetColBatch(2)
	cb.Span = tuple.Single(0)
	cb.LoadRows(0, len(src[0]), src)
	s := stem.New(stem.Config{Table: 0, Q: q, TS: &stem.Counter{}})
	batch := &flow.Batch{Col: cb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		cb.Built, cb.Sel = 0, nil
		if _, ems, _ := s.ProcessColBatch(batch, 0, nil, nil); len(ems) != 1 || ems[0].B.Rows() != rows {
			b.Fatalf("build bounced %d batches", len(ems))
		}
	}
}

// BenchmarkBandJoin_HashDict: a range (inequality) condition beside a sparse
// equi join; the hash index narrows by the key and the SteM verifies the band.
func BenchmarkBandJoin_HashDict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rData := workload.Uniform("R", 256, 2, 4096, 1)
		sData := workload.Uniform("S", 256, 2, 4096, 2)
		q := query.MustNew(
			[]*schema.Table{rData.Schema, sData.Schema},
			[]pred.P{
				pred.EquiJoin(0, 0, 1, 0),      // key equi join (sparse)
				pred.Join(0, 1, pred.Le, 1, 1), // band condition
			},
			[]query.AMDecl{
				{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Microsecond}},
				{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Microsecond}},
			},
		)
		r, err := eddy.NewRouter(q, eddy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eddy.NewSim(r).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Policy ablation: routing decision overhead end to end.

func benchPolicy(b *testing.B, mk func() policy.Policy) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := eddy.NewRouter(benchQ(512), eddy.Options{Policy: mk()})
		if err != nil {
			b.Fatal(err)
		}
		sim := eddy.NewSim(r)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Routed()), "routing-steps")
	}
}

func BenchmarkPolicy_Random(b *testing.B) {
	benchPolicy(b, func() policy.Policy { return policy.NewRandom(1) })
}
func BenchmarkPolicy_Fixed(b *testing.B) {
	benchPolicy(b, func() policy.Policy { return policy.NewFixed() })
}
func BenchmarkPolicy_Lottery(b *testing.B) {
	benchPolicy(b, func() policy.Policy { return policy.NewLottery(1) })
}
func BenchmarkPolicy_BenefitCost(b *testing.B) {
	benchPolicy(b, func() policy.Policy { return policy.NewBenefitCost(1) })
}

// Engine comparison: the same query on the simulator vs the channel engine.

func BenchmarkEngine_Simulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eddy.NewRouter(benchQ(256), eddy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eddy.NewSim(r).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_Concurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eddy.NewRouter(benchQ(256), eddy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng := eddy.NewConcurrent(r, clock.NewReal(0.0000001))
		if _, err := eng.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch-at-a-time ablation: the same in-memory three-way join on the
// concurrent engine at eddy batch size 1 (tuple-at-a-time dataflow) vs the
// default 64 (channel sends, SteM locking, and policy decisions amortized
// across each batch). Allocations are reported so the per-tuple event and
// synchronization overhead stays measurable.

// benchMultiwayQ builds the in-memory R ⋈ S ⋈ T join driven by scans on all
// three tables (R.a = S.x, S.y = T.key). The scans deliver in a burst (zero
// inter-arrival), so the run measures pure dispatch — routing, channel
// sends, module locking — rather than timer waits.
func benchMultiwayQ(rows int) *query.Q {
	rData := workload.RTable(workload.RSpec{Rows: rows, DistinctA: rows / 4, Seed: 1})
	sData := workload.STable(rows/4, 0)
	tData := workload.TTable(rows / 4)
	return query.MustNew(
		[]*schema.Table{rData.Schema, sData.Schema, tData.Schema},
		[]pred.P{
			pred.EquiJoin(0, 1, 1, 0), // R.a = S.x
			pred.EquiJoin(1, 1, 2, 0), // S.y = T.key
		},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData},
			{Table: 1, Kind: query.Scan, Data: sData},
			{Table: 2, Kind: query.Scan, Data: tData},
		},
	)
}

func BenchmarkConcurrentMultiway(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := eddy.NewRouter(benchMultiwayQ(512), eddy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		outs, err := eddy.NewConcurrent(r, clock.NewReal(0.0000001)).RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) == 0 {
			b.Fatal("no results")
		}
	}
}

// Micro-benches on the SteM itself.

func BenchmarkSteMBuildProbe(b *testing.B) {
	q := benchQ(8)
	counter := &stem.Counter{}
	s := stem.New(stem.Config{Table: 1, Q: q, TS: counter})
	// Preload the SteM.
	for i := 0; i < 1024; i++ {
		m := tuple.NewSingleton(2, 1, tuple.Row{value.NewInt(int64(i % 256)), value.NewInt(int64(i))})
		s.Process(m, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tuple.NewSingleton(2, 0, tuple.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 256))})
		r.CompTS[0] = counter.Next()
		r.Built = tuple.Single(0)
		s.Process(r, 0)
	}
}

// Facade-level end-to-end bench.

func BenchmarkFacadeEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := NewQuery().
			Table("R", Ints("key", "a"), [][]int64{{1, 10}, {2, 20}, {3, 10}, {4, 30}}).
			Table("S", Ints("x", "y"), [][]int64{{10, 100}, {20, 200}, {30, 300}}).
			Scan("R", time.Microsecond).
			Scan("S", time.Microsecond).
			Where("R.a", "=", "S.x").
			Run(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}
