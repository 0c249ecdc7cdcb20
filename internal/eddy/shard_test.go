// shard_test.go pins that Options.Shards is ignored. SteMs are one store
// each; the field survives only because the frozen benchmark harness still
// sets it, and it goes with that harness's next change. Until then, whatever
// it says, a query must give exactly what it gives with the field unset.
package eddy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/oracle"
)

// TestShardedConcurrentAgainstOracle runs the Theorem 1/2 property on the
// concurrent engine with Options.Shards set: random queries, policies, and
// access-method mixes must produce exactly the oracle result multiset at
// every value of the ignored field.
func TestShardedConcurrentAgainstOracle(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	for _, shards := range []int{2, 8} {
		for seed := 0; seed < n; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(seed)))
				q := genQuery(rng)
				opts := genOptions(rng, q)
				opts.Shards = shards
				r, err := NewRouter(q, opts)
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				eng := NewConcurrent(r, clock.NewReal(0.00002))
				outs, err := eng.RunContext(context.Background())
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if r.Stuck() != 0 {
					t.Errorf("router stuck %d", r.Stuck())
				}
				got := make(oracle.Result)
				for _, o := range outs {
					got[o.T.ResultKey()]++
				}
				want := oracle.Compute(q)
				missing, extra := oracle.Diff(want, got)
				if len(missing) > 0 || len(extra) > 0 {
					t.Errorf("missing=%d extra=%d (got %d want %d)",
						len(missing), len(extra), len(got), len(want))
				}
			})
		}
	}
}

// TestShardCountsEquivalent runs one fixed query with Options.Shards at 1, 2,
// and 8 on the concurrent engine and requires identical result multisets.
func TestShardCountsEquivalent(t *testing.T) {
	var ref oracle.Result
	for _, shards := range []int{1, 2, 8} {
		q := twoTableQuery(t)
		r, err := NewRouter(q, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := NewConcurrent(r, clock.NewReal(0.0001)).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := make(oracle.Result)
		for _, o := range outs {
			got[o.T.ResultKey()]++
		}
		if ref == nil {
			ref = got
			continue
		}
		m, e := oracle.Diff(ref, got)
		if len(m) > 0 || len(e) > 0 {
			t.Errorf("Shards %d disagrees with Shards 1: missing=%d extra=%d", shards, len(m), len(e))
		}
	}
}

// TestShardedSimulatorDeterminism verifies the simulator stays deterministic
// with Options.Shards set: identical output sequences run to run.
func TestShardedSimulatorDeterminism(t *testing.T) {
	run := func() []Output {
		q := twoTableQuery(t)
		r, err := NewRouter(q, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := NewSim(r).Run()
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
			t.Fatalf("output %d differs", i)
		}
	}
}
