package eddy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/oracle"
)

// TestConcurrentBatchSizesAgainstOracle runs the random-query correctness
// property on the concurrent engine across coalescing caps, including a cap
// of 1, where nothing coalesces, and sizes that leave partial batches.
func TestConcurrentBatchSizesAgainstOracle(t *testing.T) {
	sizes := []int{1, 3, 64}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, bs := range sizes {
		for seed := 0; seed < seeds; seed++ {
			bs, seed := bs, seed
			t.Run(fmt.Sprintf("batch=%d/seed=%d", bs, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(seed)))
				q := genQuery(rng)
				opts := genOptions(rng, q)
				r, err := NewRouter(q, opts)
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				eng := NewConcurrent(r, clock.NewReal(0.00002))
				eng.BatchSize = bs
				outs, err := eng.Run()
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
					t.Errorf("missing=%d extra=%d (got %d want %d)", len(missing), len(extra), len(got), len(want))
				}
			})
		}
	}
}
