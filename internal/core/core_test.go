package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/oracle"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

func row(a, b int64) tuple.Row { return tuple.Row{value.NewInt(a), value.NewInt(b)} }

// fixture is the 3-way join R.a = S.x, S.y = T.key over n/n÷4/n÷16 rows —
// enough simulator events for a canceled context to be noticed. It returns the query and the
// rows each table starts with.
func fixture(n int) (*query.Q, [][]tuple.Row) { return fixturePaced(n, clock.Microsecond) }

// fixturePaced is fixture with the scans' inter-arrival time given: 0 is an
// unpaced scan, the only kind stemsd registers and the kind that travels as
// column vectors.
func fixturePaced(n int, interArrival clock.Duration) (*query.Q, [][]tuple.Row) {
	d, e := n/4, n/16
	rows := make([][]tuple.Row, 3)
	for i := 0; i < n; i++ {
		rows[0] = append(rows[0], row(int64(i), int64(i%d)))
	}
	for j := 0; j < d; j++ {
		rows[1] = append(rows[1], row(int64(j), int64(j%e)))
	}
	for k := 0; k < e; k++ {
		rows[2] = append(rows[2], row(int64(k), int64(k*10)))
	}
	tabs := []*schema.Table{
		schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a")),
		schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y")),
		schema.MustTable("T", schema.IntCol("key"), schema.IntCol("c")),
	}
	var ams []query.AMDecl
	for t, tab := range tabs {
		ams = append(ams, query.AMDecl{Table: t, Kind: query.Scan, Data: source.MustTable(tab, rows[t]),
			ScanSpec: source.ScanSpec{InterArrival: interArrival}})
	}
	q := query.MustNew(tabs, []pred.P{pred.EquiJoin(0, 1, 1, 0), pred.EquiJoin(1, 1, 2, 0)}, ams)
	return q, rows
}

type insert struct {
	table int
	row   tuple.Row
}

// deltas are three insert rounds, one per table. Every round joins against
// the snapshot, and rounds 1 and 2 also against rows an earlier round
// inserted, so each must produce results.
func deltas(n int) [][]insert {
	d, e := int64(n/4), int64(n/16)
	return [][]insert{
		{{2, row(0, 999)}, {2, row(e, 77)}},              // a second T row for key 0; a key no S references yet
		{{1, row(0, e)}, {1, row(d, e)}},                 // old R rows reach the new T key; a new S key waits for R
		{{0, row(int64(n), d)}, {0, row(int64(n)+1, 1)}}, // reaches round 1's S row; reaches the snapshot
	}
}

func collect(got oracle.Result, outs []eddy.Output) {
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
}

func mustMatch(t *testing.T, what string, want, got oracle.Result) {
	t.Helper()
	if m, e := oracle.Diff(want, got); len(m) > 0 || len(e) > 0 {
		t.Fatalf("%s: %d missing, %d extra results (want %d distinct)", what, len(m), len(e), len(want))
	}
}

func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExecMatrix drives the one builder on both engines through every
// lifecycle a caller uses, comparing each run to the brute-force oracle.
// (The subtests keep the "/batch64" suffix from when the batch size was an
// axis of the matrix.)
func TestExecMatrix(t *testing.T) {
	const n = 160
	for _, engine := range []Engine{Sim, Concurrent} {
		name := [...]string{"sim", "concurrent"}[engine] + "/batch64"
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			q, rows := fixture(n)
			want := oracle.Compute(q)
			ex, err := Build(Spec{Q: q, Engine: engine, Policy: "benefitcost", Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ex.Poolable(), engine == Concurrent; got != want {
				t.Fatalf("Poolable() = %v, want %v", got, want)
			}
			run := func(what string) {
				t.Helper()
				streamed := 0
				outs, err := ex.Run(context.Background(), func(*tuple.Tuple, clock.Time) { streamed++ }, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got := make(oracle.Result)
				collect(got, outs)
				mustMatch(t, what, want, got)
				if streamed != len(outs) {
					t.Fatalf("%s: hook saw %d results, Run returned %d", what, streamed, len(outs))
				}
				st := ex.Stats()
				if st.RoutingSteps == 0 || st.Builds == 0 {
					t.Fatalf("%s: empty stats %+v", what, st)
				}
				if rec := ex.Record(true); rec.Results != uint64(len(outs)) || len(rec.Modules) == 0 {
					t.Fatalf("%s: trace records %d results over %d modules, want %d", what, rec.Results, len(rec.Modules), len(outs))
				}
			}
			reset := func() {
				t.Helper()
				if err := ex.Reset(); err != nil {
					t.Fatal(err)
				}
			}

			run("first run")
			if _, err := ex.Run(context.Background(), nil, nil); err == nil {
				t.Fatal("second Run without Reset succeeded")
			}
			builds := ex.Stats().Builds
			reset()
			run("after Reset")
			if b := ex.Stats().Builds; b != builds {
				t.Fatalf("Reset carried state over: %d builds, then %d", builds, b)
			}

			reset()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := ex.Run(ctx, nil, nil); err == nil {
				t.Fatal("canceled Run returned no error")
			}
			if _, err := ex.RunDelta(context.Background(), nil, nil, nil); err == nil {
				t.Fatal("RunDelta after a canceled round succeeded")
			}
			reset()
			run("after canceled run and Reset")

			// Snapshot ∪ deltas equals a batch run over the final rows.
			reset()
			got := make(oracle.Result)
			outs, err := ex.Run(context.Background(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			collect(got, outs)
			for i, round := range deltas(n) {
				delta := make([][]tuple.Row, q.NumTables())
				for _, in := range round {
					delta[in.table] = append(delta[in.table], in.row)
					rows[in.table] = append(rows[in.table], in.row)
				}
				outs, err := ex.RunDelta(context.Background(), delta, nil, nil)
				if err != nil {
					t.Fatalf("delta round %d: %v", i, err)
				}
				if len(outs) == 0 {
					t.Fatalf("delta round %d produced nothing", i)
				}
				collect(got, outs)
			}
			mustMatch(t, "snapshot ∪ deltas", oracle.ComputeFromRows(q, rows), got)

			ex.Release()
			settle(t, baseline)
		})
	}
}

// TestPoolable pins which Specs may be reset in place.
func TestPoolable(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want bool
	}{
		{"concurrent", Spec{Engine: Concurrent}, true},
		{"sim", Spec{Engine: Sim}, false},
		{"windowed", Spec{Engine: Concurrent, Windows: []int{0, 8}}, false},
	}
	for _, tc := range cases {
		if got := tc.spec.Poolable(); got != tc.want {
			t.Errorf("%s: Poolable() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBuildRejects pins the Spec validation Build owns.
func TestBuildRejects(t *testing.T) {
	q, _ := fixture(16)
	if _, err := Build(Spec{Q: q, Policy: "warp"}); err == nil {
		t.Error("unknown policy: Build succeeded")
	}
	if _, err := EngineByName("warp"); err == nil {
		t.Error("EngineByName accepted an unknown engine")
	}
}

// TestReleaseRecyclesStorage: a handle that releases its SteM storage and is
// Reset builds its second run into what the first left in the process-wide
// pools: both dictionaries come back recycled, and over 4,000-row tables the
// second run allocates a fraction of the first's bytes and a count that does
// not depend on the row count. (What the second run does allocate is column
// vectors: flow's batch pool hands a batch shaped for one table to a scan of
// the other.) Between Release and Reset the handle refuses to run.
func TestReleaseRecyclesStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	const n = 4000
	tabs := []*schema.Table{
		schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a")),
		schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y")),
	}
	rows := make([][]tuple.Row, 2)
	for i := 0; i < n; i++ {
		rows[0] = append(rows[0], row(int64(i), int64(i)))
		rows[1] = append(rows[1], row(int64(i+n-10), int64(i))) // ten R rows find a match
	}
	var ams []query.AMDecl
	for ti, tab := range tabs {
		ams = append(ams, query.AMDecl{Table: ti, Kind: query.Scan, Data: source.MustTable(tab, rows[ti])})
	}
	q := query.MustNew(tabs, []pred.P{pred.EquiJoin(0, 1, 1, 0)}, ams)
	want := oracle.Result{} // R's last ten rows, each with S's row of the same number
	for i := 0; i < 10; i++ {
		r, s := tuple.NewSingleton(2, 0, rows[0][n-10+i]), tuple.NewSingleton(2, 1, rows[1][i])
		want[r.Concat(s).ResultKey()]++
	}

	// Empty the pools (two cycles: sync.Pool keeps a victim generation), then
	// keep the collector from emptying them again mid-test, and run on one P:
	// what one P puts in its private pool slot no other P can take out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var ex *Exec
	measure := func(what string, step func()) (mallocs, bytes uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		outs, err := ex.Run(context.Background(), nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := oracle.Result{}
		collect(got, outs)
		mustMatch(t, what, want, got)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	m1, b1 := measure("first run", func() {
		var err error
		if ex, err = Build(Spec{Q: q, Engine: Concurrent, Policy: "benefitcost"}); err != nil {
			t.Fatal(err)
		}
	})
	ex.Release()
	if _, err := ex.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("Run on a released handle must refuse")
	}
	if _, err := ex.RunDelta(context.Background(), nil, nil, nil); err == nil {
		t.Fatal("RunDelta on a released handle must refuse")
	}
	if st := ex.Stats(); st.Builds != 2*n {
		t.Fatalf("a released handle's counters read %d builds, want %d", st.Builds, 2*n)
	}
	recycled, fresh := stem.DictAcquires()
	m2, b2 := measure("second run", func() {
		if err := ex.Reset(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first run %d allocations / %d bytes; after Release+Reset %d / %d", m1, b1, m2, b2)
	if r, f := stem.DictAcquires(); r != recycled+2 || f != fresh {
		t.Errorf("second run acquired %d recycled and %d new dictionaries, want the 2 it released", r-recycled, f-fresh)
	}
	if b2*4 > b1 {
		t.Errorf("second run allocated %d bytes, want less than a quarter of the first's %d", b2, b1)
	}
	if m2 > n/10 {
		t.Errorf("second run made %d allocations over %d-row tables, want a count that does not grow with the rows", m2, n)
	}
	ex.Release()
}

// TestColumnarSinkOwnsItsRows pins the two output contracts of Run. A streamed
// server query installs both hooks: results that reach the output stage as a
// columnar batch go to the columnar hook alone — not boxed, not passed to the
// tuple hook, not returned, so Run returns nothing for them (it used to keep
// every streamed result alive until the run ended) — while the collector
// still counts them. With the tuple hook alone every result is streamed and
// returned, which the facade reads. Either way the hooks are off the engine
// when the round ends.
func TestColumnarSinkOwnsItsRows(t *testing.T) {
	q, _ := fixturePaced(160, 0)
	want := oracle.Compute(q)
	ex, err := Build(Spec{Q: q, Engine: Concurrent, Policy: "benefitcost", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make(oracle.Result)
	tuples, boxed := 0, flow.MaterializedRows()
	outs, err := ex.Run(context.Background(),
		func(tp *tuple.Tuple, _ clock.Time) { tuples++; got[tp.ResultKey()]++ },
		func(cb *flow.ColBatch, _ clock.Time) {
			if flow.MaterializedRows() != boxed {
				t.Errorf("%d rows were materialized before the sink saw them", flow.MaterializedRows()-boxed)
			}
			for _, tp := range cb.Materialize() { // the test's own boxing, to key the rows
				got[tp.ResultKey()]++
			}
			boxed = flow.MaterializedRows()
		})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "both hooks", want, got)
	if tuples != 0 || len(outs) != 0 {
		t.Errorf("%d results took the tuple hook and Run returned %d; an unpaced equi-join stays on columns and its sink owns the rows", tuples, len(outs))
	}
	total := 0
	for _, n := range want {
		total += n
	}
	if rec := ex.Record(false); rec.Results != uint64(total) {
		t.Errorf("collector counted %d results, want %d", rec.Results, total)
	}
	if ex.eng.OnOutput != nil || ex.eng.OnOutputCols != nil || ex.eng.OnService != nil {
		t.Error("a finished round left hooks on the engine")
	}

	if err := ex.Reset(); err != nil {
		t.Fatal(err)
	}
	streamed := 0
	outs, err = ex.Run(context.Background(), func(*tuple.Tuple, clock.Time) { streamed++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = make(oracle.Result)
	collect(got, outs)
	mustMatch(t, "tuple hook only", want, got)
	if streamed != len(outs) {
		t.Errorf("tuple hook saw %d results, Run returned %d", streamed, len(outs))
	}
	ex.Release()
}

// TestDeltaRoundAllocs pins what one standing-query round allocates: a
// concurrent 3-way join over fixturePaced(4000, 0), a snapshot run, then
// rounds that each hand four new R rows to RunDelta (each joins one S row and
// one T row) with a columnar sink — the shape of a 4-row POST /insert on a
// subscribed table. Loading the rows into one column batch instead of four
// singleton tuples, and lifting each module once per shell instead of once
// per worker run, took the average from 67 to 23; the eddy routing the seeds
// itself, with no seeder goroutine, took it to 22; running the round inline,
// with no worker goroutines, wait group or wind-down, took it to 12. The bound
// is that plus 5 %, so a delta round that boxes its rows again, or goes back
// to goroutines, crosses it.
func TestDeltaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const (
		n      = 4000
		warmup = 50
		rounds = 2000
		bound  = 12 * 1.05
	)
	q, _ := fixturePaced(n, 0)
	ex, err := Build(Spec{Q: q, Engine: Concurrent, Policy: "benefitcost"})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Release()
	if _, err := ex.Run(context.Background(), nil, func(*flow.ColBatch, clock.Time) {}); err != nil {
		t.Fatal(err)
	}
	d := int64(n / 4)
	rows := make([]tuple.Row, 4*(warmup+rounds+1))
	for i := range rows {
		key := int64(n + i)
		rows[i] = row(key, key%d)
	}
	next, got := 0, 0
	sink := func(cb *flow.ColBatch, _ clock.Time) { got += cb.Rows() }
	delta := make([][]tuple.Row, 3)
	round := func() {
		delta[0] = rows[next : next+4]
		next += 4
		got = 0
		outs, err := ex.RunDelta(context.Background(), delta, nil, sink)
		if err != nil || got+len(outs) != 4 {
			t.Fatalf("round ending at row %d: %d results, %v; want 4", next, got+len(outs), err)
		}
	}
	for range warmup {
		round()
	}
	avg := testing.AllocsPerRun(rounds, round)
	t.Logf("%.1f allocations per 4-row delta round (bound %.1f)", avg, bound)
	if avg > bound {
		t.Errorf("a 4-row delta round makes %.1f allocations, want at most %.1f", avg, bound)
	}
}
