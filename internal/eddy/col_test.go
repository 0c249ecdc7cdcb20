package eddy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// genMixedQuery builds a random SPJ query whose columns mix value kinds —
// integer columns, string columns (exercising dictionary-encoded vectors),
// and ~10% null values (exercising the null bitmaps) — and whose scans mostly
// deliver in a burst (zero inter-arrival), the configuration under which the
// access modules emit columnar batches. EOT markers reach the columnar
// kernels through the completeness tuples every source emits.
func genMixedQuery(rng *rand.Rand) *query.Q {
	nt := 1 + rng.Intn(4)
	tables := make([]*schema.Table, nt)
	datas := make([]*source.Table, nt)
	kinds := make([][]value.Kind, nt)
	for i := 0; i < nt; i++ {
		nc := 2 + rng.Intn(2)
		cols := make([]schema.Column, nc)
		kinds[i] = make([]value.Kind, nc)
		for c := range cols {
			if rng.Intn(2) == 0 {
				cols[c] = schema.IntCol(fmt.Sprintf("c%d", c))
				kinds[i][c] = value.Int
			} else {
				cols[c] = schema.StrCol(fmt.Sprintf("c%d", c))
				kinds[i][c] = value.Str
			}
		}
		tables[i] = schema.MustTable(fmt.Sprintf("T%d", i), cols...)
		nr := 1 + rng.Intn(12)
		seen := make(map[string]bool)
		var rows []tuple.Row
		for r := 0; r < nr; r++ {
			row := make(tuple.Row, nc)
			for c := range row {
				switch {
				case rng.Intn(10) == 0:
					row[c] = value.NewNull()
				case kinds[i][c] == value.Int:
					row[c] = value.NewInt(int64(rng.Intn(5)))
				default:
					row[c] = value.NewStr(fmt.Sprintf("s%d", rng.Intn(5)))
				}
			}
			if k := row.Key(); !seen[k] {
				seen[k] = true
				rows = append(rows, row)
			}
		}
		datas[i] = source.MustTable(tables[i], rows)
	}

	// Spanning tree of equi-joins; prefer same-kind column pairs so the join
	// actually produces matches (cross-kind equality never holds).
	pickPair := func(a, b int) (int, int) {
		for tries := 0; tries < 8; tries++ {
			ca, cb := rng.Intn(len(kinds[a])), rng.Intn(len(kinds[b]))
			if kinds[a][ca] == kinds[b][cb] {
				return ca, cb
			}
		}
		return rng.Intn(len(kinds[a])), rng.Intn(len(kinds[b]))
	}
	var preds []pred.P
	for i := 1; i < nt; i++ {
		j := rng.Intn(i)
		cj, ci := pickPair(j, i)
		preds = append(preds, pred.EquiJoin(j, cj, i, ci))
	}
	if nt >= 3 && rng.Intn(2) == 0 {
		a, b := rng.Intn(nt), rng.Intn(nt)
		if a != b {
			ca, cb := pickPair(a, b)
			preds = append(preds, pred.EquiJoin(a, ca, b, cb))
		}
	}
	// Random selections over both kinds.
	for i := 0; i < nt; i++ {
		if rng.Intn(3) == 0 {
			c := rng.Intn(len(kinds[i]))
			ops := []pred.Op{pred.Le, pred.Ge, pred.Lt, pred.Gt, pred.Eq, pred.Ne}
			var cv value.V
			if kinds[i][c] == value.Int {
				cv = value.NewInt(int64(rng.Intn(5)))
			} else {
				cv = value.NewStr(fmt.Sprintf("s%d", rng.Intn(5)))
			}
			preds = append(preds, pred.Selection(i, c, ops[rng.Intn(len(ops))], cv))
		}
	}

	var ams []query.AMDecl
	for i := 0; i < nt; i++ {
		scan := query.AMDecl{Table: i, Kind: query.Scan, Data: datas[i]}
		if rng.Intn(4) == 0 {
			// A paced scan keeps the row-representation AM path in the mix.
			scan.ScanSpec = source.ScanSpec{InterArrival: clock.Duration(1+rng.Intn(3)) * clock.Millisecond}
		}
		var idxCol = -1
		for _, p := range preds {
			if !p.IsEquiJoin() {
				continue
			}
			if p.Left.Table == i {
				idxCol = p.Left.Col
				break
			}
			if p.Right.Table == i {
				idxCol = p.Right.Col
				break
			}
		}
		if idxCol >= 0 && rng.Intn(4) == 0 {
			// An index AM forces the SteM's columnar probe gate (per-value
			// completeness) onto the row fallback for this table.
			idx := query.AMDecl{Table: i, Kind: query.Index, Data: datas[i],
				IndexSpec: source.IndexSpec{KeyCols: []int{idxCol},
					Latency: clock.Duration(1+rng.Intn(5)) * clock.Millisecond, Parallel: 1 + rng.Intn(3)}}
			ams = append(ams, scan, idx)
			continue
		}
		ams = append(ams, scan)
	}
	return query.MustNew(tables, preds, ams)
}

// runConcurrentBatch executes q on the concurrent engine at one batch size
// and returns the result multiset.
func runConcurrentBatch(t *testing.T, q *query.Q, opts Options, batch int) oracle.Result {
	t.Helper()
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	eng.BatchSize = batch
	outs, err := eng.Run()
	if err != nil {
		t.Fatalf("Run(batch=%d): %v", batch, err)
	}
	if r.Stuck() != 0 {
		t.Errorf("router stuck %d under batch=%d", r.Stuck(), batch)
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	return got
}

// TestColumnarRowEquivalence is the cross-representation property: for random
// queries mixing Int, Str and Null values (EOT markers travel as completeness
// tuples in every run), the concurrent engine at coalescing caps 1, 3 and 64
// and the deterministic simulator, the row-representation reference engine,
// produce the same result multiset — all equal to the brute-force oracle.
// Which representation carries a batch is the engine's choice (paced scans and
// index AMs in the mix keep rows in play), so the only row-only concurrent
// point left to pin is the one it picks itself.
func TestColumnarRowEquivalence(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	batches := []int{1, 3, 64}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + seed)))
			q := genMixedQuery(rng)
			var opts Options
			switch rng.Intn(3) {
			case 0:
				opts.Policy = policy.NewFixed()
			case 1:
				opts.Policy = policy.NewLottery(rng.Int63())
			default:
				opts.Policy = policy.NewBenefitCost(rng.Int63())
			}
			want := oracle.Compute(q)

			// Row-representation reference engine: the simulator.
			r, err := NewRouter(q, opts)
			if err != nil {
				t.Fatalf("NewRouter: %v", err)
			}
			simOuts, err := NewSim(r).Run()
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			simGot := make(oracle.Result)
			for _, o := range simOuts {
				simGot[o.T.ResultKey()]++
			}
			if missing, extra := oracle.Diff(want, simGot); len(missing) > 0 || len(extra) > 0 {
				t.Fatalf("simulator: missing=%d extra=%d", len(missing), len(extra))
			}

			for _, bs := range batches {
				t.Logf("running batch=%d", bs)
				got := runConcurrentBatch(t, q, opts, bs)
				missing, extra := oracle.Diff(want, got)
				if len(missing) > 0 || len(extra) > 0 {
					t.Errorf("batch=%d: missing=%d extra=%d (got %d want %d)",
						bs, len(missing), len(extra), len(got), len(want))
				}
			}
		})
	}
}

// TestBandJoinsAgainstOracle pins the non-equi path end to end: a SteM's
// dictionary is hash indexes and nothing else, so a probe bound by a
// comparison (band) predicate is served the narrowest equality bucket — or,
// with no equality beside it, every stored row — and the predicate is
// verified on concatenation. Both shapes must produce the oracle's multiset
// on the simulator and on the concurrent engine, rows and columns.
func TestBandJoinsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	table := func(name string, rows int) *source.Table {
		sch := schema.MustTable(name, schema.IntCol("k"), schema.IntCol("v"))
		data := make([]tuple.Row, rows)
		for i := range data {
			data[i] = intRow(int64(rng.Intn(6)), int64(i))
		}
		return source.MustTable(sch, data)
	}
	a, b := table("A", 40), table("B", 30)
	for name, preds := range map[string][]pred.P{
		"band+equi": {pred.Join(0, 1, pred.Lt, 1, 1), pred.EquiJoin(0, 0, 1, 0)}, // a.v < b.v AND a.k = b.k
		"band":      {pred.Join(0, 1, pred.Lt, 1, 1)},                            // a.v < b.v
	} {
		t.Run(name, func(t *testing.T) {
			q := query.MustNew([]*schema.Table{a.Schema, b.Schema}, preds,
				[]query.AMDecl{scanAM(0, a, 0), scanAM(1, b, 0)})
			want := oracle.Compute(q)
			if len(want) == 0 {
				t.Fatal("the band join matches nothing; the test is vacuous")
			}
			runAndCheck(t, q, Options{})
			for _, bs := range []int{1, 64} {
				got := runConcurrentBatch(t, q, Options{}, bs)
				if missing, extra := oracle.Diff(want, got); len(missing) > 0 || len(extra) > 0 {
					t.Errorf("batch=%d: missing=%d extra=%d (got %d want %d)", bs, len(missing), len(extra), len(got), len(want))
				}
			}
		})
	}
}

// TestColumnarPathActivates pins that the columnar dataflow actually engages
// for the burst-scan multiway join (the configuration the batch benchmarks
// measure): at batch size 64, the SteMs must service builds without the row
// path's per-tuple processing ever producing different statistics totals,
// and the engine must produce the oracle multiset. The build counters double-check
// the test is not vacuous: a silently disabled columnar path would still pass
// the equivalence property.
func TestColumnarPathActivates(t *testing.T) {
	q := mixedBurstQuery()
	want := oracle.Compute(q)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	eng.BatchSize = 64
	outs, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	if missing, extra := oracle.Diff(want, got); len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("missing=%d extra=%d", len(missing), len(extra))
	}
	var builds uint64
	for _, s := range r.SteMs() {
		builds += s.Stats().Builds
	}
	if builds == 0 {
		t.Fatal("no SteM builds recorded")
	}
}

// mixedBurstQuery is a fixed three-table join with int and string join keys
// and burst scans — the deterministic companion to the randomized sweep.
func mixedBurstQuery() *query.Q {
	rT := schema.MustTable("R", schema.IntCol("key"), schema.StrCol("tag"))
	sT := schema.MustTable("S", schema.StrCol("tag"), schema.IntCol("grp"))
	tT := schema.MustTable("T", schema.IntCol("grp"), schema.IntCol("w"))
	var rRows, sRows, tRows []tuple.Row
	for i := 0; i < 40; i++ {
		rRows = append(rRows, tuple.Row{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("t%d", i%7))})
	}
	for i := 0; i < 14; i++ {
		v := value.NewInt(int64(i % 5))
		if i%11 == 10 {
			v = value.NewNull()
		}
		sRows = append(sRows, tuple.Row{value.NewStr(fmt.Sprintf("t%d", i%7)), v})
	}
	for i := 0; i < 10; i++ {
		tRows = append(tRows, tuple.Row{value.NewInt(int64(i % 5)), value.NewInt(int64(i))})
	}
	// Distinct rows only (set semantics).
	dedup := func(rows []tuple.Row) []tuple.Row {
		seen := make(map[string]bool)
		var out []tuple.Row
		for _, r := range rows {
			if k := r.Key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out
	}
	rRows, sRows, tRows = dedup(rRows), dedup(sRows), dedup(tRows)
	return query.MustNew(
		[]*schema.Table{rT, sT, tT},
		[]pred.P{
			pred.EquiJoin(0, 1, 1, 0), // R.tag = S.tag (string key)
			pred.EquiJoin(1, 1, 2, 0), // S.grp = T.grp (int key, with a null)
		},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: source.MustTable(rT, rRows)},
			{Table: 1, Kind: query.Scan, Data: source.MustTable(sT, sRows)},
			{Table: 2, Kind: query.Scan, Data: source.MustTable(tT, tRows)},
		},
	)
}
