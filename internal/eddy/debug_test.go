package eddy

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/oracle"
	"repro/internal/query"
)

// TestDebugSeed reproduces one generator seed with a full query dump — a
// development aid for triaging property-test failures. Enable it with
// STEMS_DEBUG_SEED=<n>.
func TestDebugSeed(t *testing.T) {
	env := os.Getenv("STEMS_DEBUG_SEED")
	if env == "" {
		t.Skip("set STEMS_DEBUG_SEED=<n> to dump a generator seed")
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad STEMS_DEBUG_SEED: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	q := genQuery(rng)
	opts := genOptions(rng, q)
	fmt.Printf("tables=%d preds=%v\n", q.NumTables(), q.Preds)
	for i, a := range q.AMs {
		fmt.Printf("AM %d: table=%d kind=%v keycols=%v rows=%d\n", i, a.Table, a.Kind, a.IndexSpec.KeyCols, len(a.Data.Rows))
		for _, r := range a.Data.Rows {
			fmt.Printf("   %v\n", r)
		}
	}
	fmt.Printf("opts: relax=%v bounce=%v policy=%T\n", opts.SkipBuild, opts.ProbeBounce, opts.Policy)
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(r.String())
	sim := NewSim(r)
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
	fmt.Printf("got=%d want=%d missing=%v extra=%v stuck=%d\n", len(outs), len(want), missing, extra, r.Stuck())
	_ = query.Scan
}
