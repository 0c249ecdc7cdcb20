package stems

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
)

// sharedJoin is the equivalence workload: a 3-way join with duplicate source
// rows (set-semantics dedup must agree between private builds and the shared
// build) and a selection on an attached table (verified at concatenation).
func sharedJoin() *Query { return sharedJoinPaced(20 * time.Microsecond) }

// sharedJoinPaced is sharedJoin with the scans' inter-arrival time given. At 0
// the scans are unpaced, as every table stemsd registers is, and above batch
// size 1 their rows reach the SteMs as column vectors.
func sharedJoinPaced(pace time.Duration) *Query {
	var r, s, u [][]int64
	for i := 0; i < 30; i++ {
		r = append(r, []int64{int64(i), int64(i % 10)})
	}
	r = append(r, []int64{5, 5}, []int64{5, 5}) // duplicate full rows
	for i := 0; i < 40; i++ {
		s = append(s, []int64{int64(i % 10), int64(i % 7), int64(i)})
	}
	s = append(s, []int64{3, 3, 3}, []int64{3, 3, 3})
	for i := 0; i < 25; i++ {
		u = append(u, []int64{int64(i % 7), int64(i * 4)})
	}
	u = append(u, []int64{2, 8}, []int64{2, 8})
	return NewQuery().
		Table("R", Ints("key", "a"), r).
		Table("S", Ints("x", "b", "sid"), s).
		Table("U", Ints("c", "d"), u).
		Scan("R", pace).
		Scan("S", pace).
		Scan("U", pace).
		Where("R.a", "=", "S.x").
		Where("S.b", "=", "U.c").
		Where("U.d", "<", "90")
}

// TestSharedStemsAgree proves the tentpole's correctness claim: N concurrent
// queries attached to one shared build of S and U return results
// multiset-identical to a private-state run, at the default batch size and at
// BatchSize 1. (At the default batch size the private side of the dataflow
// travels columnar; at 1 everything is row-at-a-time. The subtest labels keep
// the spelling they had when rows were a knob and shared state took a spill
// budget.) Runs under -race in CI (root package, full race job), so the
// lock-free shared-dictionary reads are exercised concurrently.
func TestSharedStemsAgree(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Options{Engine: Concurrent}).Rows)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; the equivalence check would be vacuous")
	}
	const concurrent = 4
	for _, batch := range []int{0, 1} {
		name := fmt.Sprintf("rowBatches=%v/budget=0", batch == 1)
		t.Run(name, func(t *testing.T) {
			base := sharedJoin()
			sharedS, err := base.BuildSharedState("S")
			if err != nil {
				t.Fatal(err)
			}
			sharedU, err := base.BuildSharedState("U")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, concurrent)
			for g := 0; g < concurrent; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, err := sharedJoin().Run(Options{
						Engine:    Concurrent,
						BatchSize: batch,
						Shared:    map[string]*SharedState{"S": sharedS, "U": sharedU},
					})
					if err != nil {
						errs[g] = err
						return
					}
					got := keysOf(res.Rows)
					if len(got) != len(want) {
						errs[g] = fmt.Errorf("%d rows, want %d", len(got), len(want))
						return
					}
					for i := range want {
						if got[i] != want[i] {
							errs[g] = fmt.Errorf("row %d = %q, want %q", i, got[i], want[i])
							return
						}
					}
					if res.Stats.SteMBuilds == 0 {
						errs[g] = fmt.Errorf("driver table R built nothing")
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
		})
	}
}

// TestSharedStemsAgreeUnpaced is TestSharedStemsAgree for the serving shape:
// the driver table's scan is unpaced, so at the default batch size the
// attached SteMs are probed with column vectors (stem/col.go's probeCols, which
// reads the shared dictionaries lock-free from every concurrent query), and at
// batch size 1 with rows — the exact row dataflow. Both must return what a
// private-state run returns. Runs under -race in CI with the root package.
func TestSharedStemsAgreeUnpaced(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoinPaced(0), Options{Engine: Concurrent}).Rows)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; the equivalence check would be vacuous")
	}
	base := sharedJoinPaced(0)
	shared := map[string]*SharedState{}
	for _, tbl := range []string{"S", "U"} {
		ss, err := base.BuildSharedState(tbl)
		if err != nil {
			t.Fatal(err)
		}
		shared[tbl] = ss
	}
	for _, batch := range []int{1, 64} {
		boxed := flow.MaterializedRows()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := sharedJoinPaced(0).Run(Options{Engine: Concurrent, BatchSize: batch, Shared: shared})
				if err != nil {
					t.Errorf("batch=%d: %v", batch, err)
					return
				}
				if got := keysOf(res.Rows); !slices.Equal(got, want) {
					t.Errorf("batch=%d: %d rows, private run %d, or they differ", batch, len(got), len(want))
				}
			}()
		}
		wg.Wait()
		// The facade reads tuples, so the output stage boxes each result
		// once; an attached probe that left the column path would box its
		// probe rows on top.
		if moved := flow.MaterializedRows() - boxed; batch > 1 && moved != uint64(4*len(want)) {
			t.Errorf("batch=%d: %d rows materialized by 4 runs of %d results", batch, moved, len(want))
		}
	}
}

// TestSharedStemsSimEngine pins that attachments also work on the
// deterministic simulation engine (same results, same mechanism).
func TestSharedStemsSimEngine(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Options{Engine: Sim}).Rows)
	base := sharedJoin()
	sharedU, err := base.BuildSharedState("U")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharedJoin().Run(Options{Engine: Sim, Shared: map[string]*SharedState{"U": sharedU}})
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(res.Rows)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSharedStemsRejectsFullAttachment pins the router-level guard: a query
// whose every table is attached has nothing to drive the dataflow.
func TestSharedStemsRejectsFullAttachment(t *testing.T) {
	base := smallJoin()
	sharedR, err := base.BuildSharedState("R")
	if err != nil {
		t.Fatal(err)
	}
	sharedS, err := base.BuildSharedState("S")
	if err != nil {
		t.Fatal(err)
	}
	_, err = smallJoin().Run(Options{Shared: map[string]*SharedState{"R": sharedR, "S": sharedS}})
	if err == nil {
		t.Fatal("attaching every table must be rejected")
	}
}
