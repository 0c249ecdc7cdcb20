package stems

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// sharedJoin is the equivalence workload: a 3-way join with duplicate source
// rows (set-semantics dedup must agree between private builds and the shared
// build), a selection on an attached table (verified at concatenation), and
// enough rows that sharding engages.
func sharedJoin() *Query {
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
		Scan("R", 20*time.Microsecond).
		Scan("S", 20*time.Microsecond).
		Scan("U", 20*time.Microsecond).
		Where("R.a", "=", "S.x").
		Where("S.b", "=", "U.c").
		Where("U.d", "<", "90")
}

// TestSharedStemsAgree proves the tentpole's correctness claim: N concurrent
// queries attached to one shared build of S and U return results
// multiset-identical to a private-state run, across {shards 1,4} ×
// {default batches, BatchSize 1}. (At the default batch size the private side
// of the dataflow travels columnar; at 1 everything is row-at-a-time. The
// subtest labels keep the spelling they had when rows were a knob and shared
// state took a spill budget.) Runs under -race in CI (root package, full race
// job), so the lock-free shared-dictionary reads are exercised concurrently.
func TestSharedStemsAgree(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Options{Engine: Concurrent}).Rows)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; the equivalence check would be vacuous")
	}
	const concurrent = 4
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{0, 1} {
			name := fmt.Sprintf("shards=%d/rowBatches=%v/budget=0", shards, batch == 1)
			t.Run(name, func(t *testing.T) {
				base := sharedJoin()
				sharedS, err := base.BuildSharedState("S", shards)
				if err != nil {
					t.Fatal(err)
				}
				sharedU, err := base.BuildSharedState("U", shards)
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
							Shards:    shards,
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
}

// TestSharedStemsSimEngine pins that attachments also work on the
// deterministic simulation engine (same results, same mechanism).
func TestSharedStemsSimEngine(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Options{Engine: Sim}).Rows)
	base := sharedJoin()
	sharedU, err := base.BuildSharedState("U", 1)
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
	sharedR, err := base.BuildSharedState("R", 1)
	if err != nil {
		t.Fatal(err)
	}
	sharedS, err := base.BuildSharedState("S", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = smallJoin().Run(Options{Shared: map[string]*SharedState{"R": sharedR, "S": sharedS}})
	if err == nil {
		t.Fatal("attaching every table must be rejected")
	}
}
