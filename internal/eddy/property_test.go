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
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

// genQuery builds a random SPJ query: 1–4 tables with random small-domain
// integer data, a random spanning tree of equi-joins (plus an optional extra
// cycle edge and comparison join), random selections, and a random mix of
// scan and index access methods that passes bind-order validation.
func genQuery(rng *rand.Rand) *query.Q {
	nt := 1 + rng.Intn(4)
	tables := make([]*schema.Table, nt)
	datas := make([]*source.Table, nt)
	for i := 0; i < nt; i++ {
		nc := 2 + rng.Intn(2)
		cols := make([]schema.Column, nc)
		for c := range cols {
			cols[c] = schema.IntCol(fmt.Sprintf("c%d", c))
		}
		tables[i] = schema.MustTable(fmt.Sprintf("T%d", i), cols...)
		nr := 1 + rng.Intn(12)
		seen := make(map[string]bool)
		var rows []tuple.Row
		for r := 0; r < nr; r++ {
			row := make(tuple.Row, nc)
			for c := range row {
				row[c] = value.NewInt(int64(rng.Intn(5)))
			}
			// Sources deliver sets: the engine's set semantics (Section 3.2)
			// dedups on build, but relaxed-BuildFirst runs may legally skip
			// builds, so in-source duplicates would make results
			// routing-dependent.
			if k := row.Key(); !seen[k] {
				seen[k] = true
				rows = append(rows, row)
			}
		}
		datas[i] = source.MustTable(tables[i], rows)
	}

	var preds []pred.P
	// Spanning tree of equi-joins keeps the join graph connected.
	for i := 1; i < nt; i++ {
		j := rng.Intn(i)
		preds = append(preds, pred.EquiJoin(j, rng.Intn(tables[j].Arity()), i, rng.Intn(tables[i].Arity())))
	}
	// Optional extra edge creating a cycle.
	if nt >= 3 && rng.Intn(2) == 0 {
		a, b := rng.Intn(nt), rng.Intn(nt)
		if a != b {
			preds = append(preds, pred.EquiJoin(a, rng.Intn(tables[a].Arity()), b, rng.Intn(tables[b].Arity())))
		}
	}
	// Optional comparison join on an existing edge.
	if nt >= 2 && rng.Intn(3) == 0 {
		p0 := preds[0]
		ops := []pred.Op{pred.Le, pred.Ge, pred.Ne}
		preds = append(preds, pred.Join(p0.Left.Table, rng.Intn(tables[p0.Left.Table].Arity()),
			ops[rng.Intn(len(ops))], p0.Right.Table, rng.Intn(tables[p0.Right.Table].Arity())))
	}
	// Random selections.
	for i := 0; i < nt; i++ {
		if rng.Intn(3) == 0 {
			ops := []pred.Op{pred.Le, pred.Ge, pred.Lt, pred.Gt, pred.Eq}
			preds = append(preds, pred.Selection(i, rng.Intn(tables[i].Arity()),
				ops[rng.Intn(len(ops))], value.NewInt(int64(rng.Intn(5)))))
		}
	}

	// Access methods: every table gets a scan; some additionally get an
	// index on a column referenced by an equi-join (so probes can bind it);
	// occasionally the scan is replaced by the index alone if the bind
	// order stays feasible.
	var ams []query.AMDecl
	for i := 0; i < nt; i++ {
		scan := query.AMDecl{Table: i, Kind: query.Scan, Data: datas[i],
			ScanSpec: source.ScanSpec{InterArrival: clock.Duration(1+rng.Intn(5)) * clock.Millisecond}}
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
		switch {
		case idxCol >= 0 && rng.Intn(3) == 0:
			idx := query.AMDecl{Table: i, Kind: query.Index, Data: datas[i],
				IndexSpec: source.IndexSpec{KeyCols: []int{idxCol},
					Latency: clock.Duration(1+rng.Intn(20)) * clock.Millisecond, Parallel: 1 + rng.Intn(3)}}
			if rng.Intn(2) == 0 {
				ams = append(ams, scan, idx) // both
			} else {
				ams = append(ams, idx) // index only (may fail validation)
			}
		case rng.Intn(4) == 0:
			// Competitive scans: two scan AMs over the same data.
			scan2 := scan
			scan2.ScanSpec = source.ScanSpec{InterArrival: clock.Duration(1+rng.Intn(8)) * clock.Millisecond}
			ams = append(ams, scan, scan2)
		default:
			ams = append(ams, scan)
		}
	}

	q, err := query.New(tables, preds, ams)
	if err != nil {
		// Infeasible bind order (index-only tables can do that): fall back
		// to scans everywhere.
		var safe []query.AMDecl
		for i := 0; i < nt; i++ {
			safe = append(safe, query.AMDecl{Table: i, Kind: query.Scan, Data: datas[i],
				ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}})
		}
		q = query.MustNew(tables, preds, safe)
	}
	return q
}

// genOptions builds random router options legal for the query.
func genOptions(rng *rand.Rand, q *query.Q) Options {
	var opts Options
	switch rng.Intn(4) {
	case 0:
		opts.Policy = policy.NewFixed()
	case 1:
		opts.Policy = policy.NewLottery(rng.Int63())
	case 2:
		opts.Policy = policy.NewRandom(rng.Int63())
	default:
		opts.Policy = policy.NewBenefitCost(rng.Int63())
	}
	if rng.Intn(2) == 0 {
		opts.ProbeBounce = stem.BounceIfIndexAM
	}
	// Section 3.5 skip-build relaxation: eligible tables have exactly one
	// scan AM while every other table also has a scan.
	if rng.Intn(3) == 0 {
		allScanned := true
		for t := 0; t < q.NumTables(); t++ {
			if !q.HasScanAM(t) {
				allScanned = false
				break
			}
		}
		if allScanned {
			var eligible []int
			for t := 0; t < q.NumTables(); t++ {
				if ams := q.AMsOn(t); len(ams) == 1 && q.AMs[ams[0]].Kind == query.Scan {
					eligible = append(eligible, t)
				}
			}
			if len(eligible) > 0 {
				opts.SkipBuild = true
				opts.SkipBuildTable = eligible[rng.Intn(len(eligible))]
			}
		}
	}
	return opts
}

// TestTheorem1And2_RandomizedAgainstOracle is the repository's central
// correctness property: for random queries, data, access-method mixes,
// policies and relaxations, the eddy produces exactly the oracle's
// result set — no duplicates (Theorem 1), nothing missing or spurious, and
// termination in finitely many routing steps (Theorem 2).
func TestTheorem1And2_RandomizedAgainstOracle(t *testing.T) {
	n := 250
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			q := genQuery(rng)
			opts := genOptions(rng, q)
			runAndCheck(t, q, opts)
		})
	}
}

// TestTheorem2_Termination checks that even adversarially slow sources and
// high visit budgets terminate (the BoundedRepetition constraint).
func TestTheorem2_Termination(t *testing.T) {
	for seed := 1000; seed < 1020; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		q := genQuery(rng)
		r, err := NewRouter(q, genOptions(rng, q))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r.maxVisits = 16
		sim := NewSim(r)
		sim.MaxEvents = 5_000_000
		if _, err := sim.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDeterminism verifies two identical simulation runs produce identical
// output sequences — the property the experiment harness relies on.
func TestDeterminism(t *testing.T) {
	run := func() []Output {
		rng := rand.New(rand.NewSource(99))
		q := genQuery(rng)
		r, err := NewRouter(q, Options{Policy: policy.NewLottery(5)})
		if err != nil {
			t.Fatal(err)
		}
		sim := NewSim(r)
		outs, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].T.ResultKey() != b[i].T.ResultKey() {
			t.Fatalf("output %d differs: %v@%v vs %v@%v", i, a[i].T, a[i].At, b[i].T, b[i].At)
		}
	}
	_ = oracle.Result{}
}
