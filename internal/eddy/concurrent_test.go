package eddy

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"time"

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

// runConcurrentAndCheck executes a query on the channel engine with a heavily
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
	outs, err := eng.RunContext(context.Background())
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
					outs, err = NewConcurrent(r, clock.NewReal(0.00002)).RunContext(context.Background())
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
	conOuts, err := NewConcurrent(r2, clock.NewReal(0.0001)).RunContext(context.Background())
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

func (a *arrivalLog) Route(t *tuple.Tuple, env policy.Env) Decision {
	switch {
	case t.Seed || t.Span != tuple.Single(a.tbl):
	case t.EOT == nil:
		a.seen[t] = struct{}{}
	case a.atEOT < 0:
		a.atEOT = len(a.seen)
	}
	return a.Routing.Route(t, env)
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
		outs, err := NewConcurrent(log, clock.NewReal(0.00002)).RunContext(context.Background())
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

// burstModule answers every tuple with three fresh ones, which reach the eddy
// as one row event.
type burstModule struct{}

func (burstModule) Name() string  { return "burst" }
func (burstModule) Parallel() int { return 1 }
func (burstModule) Process(*tuple.Tuple, clock.Time) ([]flow.Emission, clock.Duration) {
	out := make([]flow.Emission, 3)
	for i := range out {
		out[i] = flow.Emit(tuple.NewSingleton(1, 0, tuple.Row{value.NewInt(int64(i))}))
	}
	return out, 0
}

// panicOnSecond routes its seed to the burst module, drops the first tuple of
// the burst and panics on the second.
type panicOnSecond struct {
	oneModule
	routed int
}

func (p *panicOnSecond) Route(t *tuple.Tuple, _ policy.Env) Decision {
	if t.Seed {
		return Decision{Module: 0}
	}
	if p.routed++; p.routed == 2 {
		panic("boom")
	}
	return Decision{Drop: true}
}

// TestRoutingPanicFailsTheRun: a Route that panics midway through a row event
// fails the run with a routing-panic error and releases exactly the event's
// unrouted tuples, so the run still quiesces. Releasing one too few or one too
// many leaves the in-flight count off zero, and the run never ends.
func TestRoutingPanicFailsTheRun(t *testing.T) {
	r := &panicOnSecond{oneModule: oneModule{mod: burstModule{}, n: 1, pol: policy.NewFixed()}}
	done := make(chan error, 1)
	go func() {
		_, err := NewConcurrent(r, clock.NewReal(0.00002)).RunContext(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "eddy: routing panic: boom") {
			t.Fatalf("run error = %v, want the routing panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run never quiesced after a routing panic")
	}
	if r.routed != 2 {
		t.Errorf("%d burst tuples were routed, want 2 (the panic ends the event)", r.routed)
	}
}

// j2Selection is R(key,a) ⋈ S(x,y) on R.a = S.x with the selection R.key < 100,
// 200 rows a table, both scans paced at pace (0: unpaced, columnar chunks),
// each SteM bounded by window (0: unbounded).
func j2Selection(pace clock.Duration, window int) (*query.Q, Options) {
	rRows, sRows := make([][]int64, 200), make([][]int64, 200)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(i % 50)}
		sRows[i] = []int64{int64(i % 50), int64(i)}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	q := query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0), pred.Selection(0, 0, pred.Lt, value.NewInt(100))},
		[]query.AMDecl{scanAM(0, source.MustTable(rT, rowsOf(rRows)), pace), scanAM(1, source.MustTable(sT, rowsOf(sRows)), pace)})
	var opts Options
	if window > 0 {
		opts.WindowFor = func(int) int { return window }
	}
	return q, opts
}

// kindLog records, per module, the move classes the policy is told about.
type kindLog struct {
	policy.Policy
	kinds map[int]uint8 // module -> bit set of policy.Kind
}

func (k *kindLog) Observe(fb policy.Feedback) {
	k.kinds[fb.Module] |= 1 << fb.Kind
	k.Policy.Observe(fb)
}

// TestFeedbackKindsMatchSim: the concurrent engine tells the policy each
// service's move class as the simulator does — a selection's feedback says
// select, so the policy learns its pass rate from Emitted, and a SteM probe's
// says probe-stem, so BenefitCost learns that SteM's hit rate.
func TestFeedbackKindsMatchSim(t *testing.T) {
	for _, pace := range []clock.Duration{0, clock.Millisecond} {
		kinds := func(sim bool) map[int]uint8 {
			q, opts := j2Selection(pace, 0)
			log := &kindLog{Policy: policy.NewFixed(), kinds: make(map[int]uint8)}
			opts.Policy = log
			r, err := NewRouter(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sim {
				_, err = NewSim(r).Run()
			} else {
				_, err = NewConcurrent(r, clock.NewReal(0.00002)).RunContext(context.Background())
			}
			if err != nil {
				t.Fatal(err)
			}
			return log.kinds
		}
		if s, c := kinds(true), kinds(false); !maps.Equal(s, c) {
			t.Errorf("pace %v: move classes per module: simulator %v, concurrent %v", pace, s, c)
		}
	}
}

// TestRowFallbackBouncesAreNotNew: a column batch a windowed SteM serves on
// its row path bounces its builds back, and the policy must not be told they
// are new tuples: a build produces none.
func TestRowFallbackBouncesAreNotNew(t *testing.T) {
	q, opts := j2Selection(0, 1000)
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	built := 0
	eng.OnService = func(fb policy.Feedback) {
		if fb.Module < 2 && fb.Sig == uint64(tuple.Single(fb.Module)) { // SteM(R) or SteM(S) building its own rows
			built += fb.Visits
			if fb.Outputs != 0 {
				t.Errorf("SteM %d build feedback reports %d new tuples of %d emitted", fb.Module, fb.Outputs, fb.Emitted)
			}
		}
	}
	if _, err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if built == 0 {
		t.Fatal("no build feedback observed; the test is vacuous")
	}
}
