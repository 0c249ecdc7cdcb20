package eddy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/oracle"
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
