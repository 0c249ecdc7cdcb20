package eddy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// runConcurrent executes a query on the channel engine with a heavily
// compressed real clock and checks the result multiset against the oracle.
func runConcurrentAndCheck(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := genQuery(rng)
	opts := genOptions(rng, q)
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatalf("seed %d: NewRouter: %v", seed, err)
	}
	// 1 virtual second = 20µs wall: a multi-minute paper run in ~ms.
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	outs, err := eng.Run()
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	if r.Stuck() != 0 {
		t.Errorf("seed %d: router stuck %d", seed, r.Stuck())
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	want := oracle.Compute(q)
	missing, extra := oracle.Diff(want, got)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("seed %d: missing=%d extra=%d (got %d want %d)", seed, len(missing), len(extra), len(got), len(want))
	}
}

// TestConcurrentEngineAgainstOracle runs the same Theorem 1/2 property on
// the goroutine/channel engine under true asynchrony (run with -race).
func TestConcurrentEngineAgainstOracle(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConcurrentAndCheck(t, int64(seed))
		})
	}
}

// TestEnginesEquivalentOnRandomQueries runs the same random query on both
// engines and requires identical result multisets: the discrete-event
// simulator and the goroutine/channel engine are two drivers of one
// semantics.
func TestEnginesEquivalentOnRandomQueries(t *testing.T) {
	n := 15
	if testing.Short() {
		n = 5
	}
	for seed := 500; seed < 500+n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			collect := func(engine string) oracle.Result {
				rng := rand.New(rand.NewSource(int64(seed)))
				q := genQuery(rng)
				opts := genOptions(rng, q)
				r, err := NewRouter(q, opts)
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				var outs []Output
				if engine == "sim" {
					outs, err = NewSim(r).Run()
				} else {
					outs, err = NewConcurrent(r, clock.NewReal(0.00002)).Run()
				}
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				res := make(oracle.Result)
				for _, o := range outs {
					res[o.T.ResultKey()]++
				}
				return res
			}
			a, b := collect("sim"), collect("concurrent")
			m, e := oracle.Diff(a, b)
			if len(m) > 0 || len(e) > 0 {
				t.Errorf("engines disagree: missing=%d extra=%d", len(m), len(e))
			}
		})
	}
}

// TestConcurrentMatchesSimResults verifies both engines compute the same
// result set for the paper's Q1-style query.
func TestConcurrentMatchesSimResults(t *testing.T) {
	q := twoTableQuery(t)
	r1, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	simOuts, err := NewSim(r1).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conOuts, err := NewConcurrent(r2, clock.NewReal(0.0001)).Run()
	if err != nil {
		t.Fatal(err)
	}
	simSet := make(oracle.Result)
	for _, o := range simOuts {
		simSet[o.T.ResultKey()]++
	}
	conSet := make(oracle.Result)
	for _, o := range conOuts {
		conSet[o.T.ResultKey()]++
	}
	m1, e1 := oracle.Diff(simSet, conSet)
	if len(m1) > 0 || len(e1) > 0 {
		t.Errorf("engines disagree: missing=%v extra=%v", m1, e1)
	}
}

// arrivalLog wraps a Routing and notes, on the eddy goroutine, how many of
// table tbl's scan rows had reached the eddy when the table's EOT did.
type arrivalLog struct {
	Routing
	tbl   int
	seen  map[*tuple.Tuple]struct{}
	atEOT int // rows seen when the EOT first arrived; -1 until then
}

func (a *arrivalLog) RouteBatch(ts []*tuple.Tuple, env policy.Env, dst []Decision) []Decision {
	for _, t := range ts {
		switch {
		case t.Seed || t.Span != tuple.Single(a.tbl):
		case t.EOT == nil:
			a.seen[t] = struct{}{}
		case a.atEOT < 0:
			a.atEOT = len(a.seen)
		}
	}
	return a.Routing.RouteBatch(ts, env, dst)
}

// TestPacedScanEOTArrivesLast: a paced scan's EOT is due together with its
// last row, and must still be the scan's last event at the eddy — a SteM that
// has seen the EOT claims completeness, so rows arriving after it are rows a
// consumed prober never met. (One goroutine and timer per delayed emission let
// the EOT overtake; one sender per service cannot.)
func TestPacedScanEOTArrivesLast(t *testing.T) {
	const rows = 50
	rRows := make([][]int64, rows)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(i % 5)}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, rowsOf(rRows))
	sData := source.MustTable(sT, rowsOf([][]int64{{0, 0}, {1, 10}, {2, 20}, {3, 30}, {4, 40}}))
	early := 0
	for run := 0; run < 200; run++ {
		q := query.MustNew(
			[]*schema.Table{rT, sT},
			[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
			[]query.AMDecl{scanAM(0, rData, clock.Millisecond), scanAM(1, sData, clock.Millisecond)},
		)
		r, err := NewRouter(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		log := &arrivalLog{Routing: r, tbl: 0, seen: make(map[*tuple.Tuple]struct{}), atEOT: -1}
		outs, err := NewConcurrent(log, clock.NewReal(0.00002)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != rows {
			t.Fatalf("run %d: %d results, want %d", run, len(outs), rows)
		}
		if log.atEOT != rows {
			if early == 0 {
				t.Errorf("run %d: the EOT reached the eddy after %d of the scan's %d rows", run, log.atEOT, rows)
			}
			early++
		}
	}
	if early > 0 {
		t.Errorf("the scan's EOT overtook its rows in %d of 200 runs", early)
	}
}

// TestFlushModuleColumnsFirst: a module's coalescing buffers reach its inbox
// columnar ones first. An AM's scan chunks are columnar and its EOT is a row,
// so this order is what keeps a SteM from seeing the EOT — and claiming
// completeness — ahead of rows it has not built yet.
func TestFlushModuleColumnsFirst(t *testing.T) {
	c := &Concurrent{
		inboxes:   []*inbox{newInbox()},
		pend:      []map[tuple.TableSet]*flow.Batch{{}},
		pendCol:   []map[tuple.TableSet]*flow.ColBatch{{}},
		pendCount: []int{0},
	}
	for table := 0; table < 2; table++ {
		span := tuple.Single(table)
		c.pend[0][span] = flow.BatchOf(tuple.NewSingleton(2, table, tuple.Row{value.NewInt(1)}))
		cb := flow.GetColBatch(2)
		cb.Span = span
		c.pendCol[0][span] = cb
		c.pendCount[0] += 2
	}
	c.flushModule(0)
	var order []bool // true for a columnar batch
	for range 4 {
		b, _ := c.inboxes[0].pop()
		order = append(order, b.Col != nil)
	}
	if want := []bool{true, true, false, false}; !slices.Equal(order, want) {
		t.Fatalf("inbox order (columnar?) = %v, want %v", order, want)
	}
	if len(c.pend[0]) != 0 || len(c.pendCol[0]) != 0 || c.pendCount[0] != 0 {
		t.Fatal("flushModule left buffered batches behind")
	}
}
