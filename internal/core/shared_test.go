package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/stem"
	"repro/internal/value"
)

// sharedJoin is the equivalence workload: a 3-way join with duplicate source
// rows (set-semantics dedup must agree between private builds and the shared
// build) and a selection on an attached table (verified at concatenation).
func sharedJoin() *query.Q { return sharedJoinPaced(20 * clock.Microsecond) }

// sharedJoinPaced is sharedJoin with the scans' inter-arrival time given. At 0
// the scans are unpaced, as every table stemsd registers is, and their rows
// reach the SteMs as column vectors.
func sharedJoinPaced(pace clock.Duration) *query.Q {
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
	return scanQuery(pace, []pred.P{
		pred.EquiJoin(0, 1, 1, 0),                       // R.a = S.x
		pred.EquiJoin(1, 1, 2, 0),                       // S.b = U.c
		pred.Selection(2, 1, pred.Lt, value.NewInt(90)), // U.d < 90
	},
		table{"R", []string{"key", "a"}, r},
		table{"S", []string{"x", "b", "sid"}, s},
		table{"U", []string{"c", "d"}, u})
}

// smallJoin is R ⋈ S on R.a = S.x, three results.
func smallJoin() *query.Q {
	return scanQuery(clock.Millisecond, []pred.P{pred.EquiJoin(0, 1, 1, 0)},
		table{"R", []string{"key", "a"}, [][]int64{{1, 10}, {2, 20}, {3, 10}}},
		table{"S", []string{"x", "y"}, [][]int64{{10, 100}, {20, 200}}})
}

// buildShared builds shared SteM state over table ti's rows, indexed on its
// join columns in q — what the server's catalog does once per (table, join
// columns) so that concurrent queries attach instead of rebuilding.
func buildShared(t *testing.T, q *query.Q, ti int) *stem.SharedState {
	t.Helper()
	ss, err := stem.BuildShared(stem.SharedConfig{KeyCols: stem.JoinCols(q, ti)}, q.AMs[q.AMsOn(ti)[0]].Data.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestSharedStemsAgree proves the correctness claim of shared SteMs: N
// concurrent queries attached to one shared build of S and U return results
// multiset-identical to a private-state run. (The subtest label keeps the
// spelling it had when rows were a knob and shared state took a spill
// budget.) Runs under -race in CI, so the lock-free shared-dictionary reads
// are exercised concurrently.
func TestSharedStemsAgree(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Spec{Engine: Concurrent}).Rows)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; the equivalence check would be vacuous")
	}
	const concurrent = 4
	t.Run("rowBatches=false/budget=0", func(t *testing.T) {
		base := sharedJoin()
		sharedS := buildShared(t, base, 1)
		sharedU := buildShared(t, base, 2)
		var wg sync.WaitGroup
		errs := make([]error, concurrent)
		for g := 0; g < concurrent; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := run(sharedJoin(), Spec{
					Engine: Concurrent,
					Shared: []*stem.SharedState{nil, sharedS, sharedU},
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

// TestSharedStemsAgreeUnpaced is TestSharedStemsAgree for the serving shape:
// the driver table's scan is unpaced, so the attached SteMs are probed with
// column vectors (stem/col.go's probeCols, which reads the shared dictionaries
// lock-free from every concurrent query), and the runs must return what a
// private-state run returns. Runs under -race in CI.
func TestSharedStemsAgreeUnpaced(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoinPaced(0), Spec{Engine: Concurrent}).Rows)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; the equivalence check would be vacuous")
	}
	base := sharedJoinPaced(0)
	shared := []*stem.SharedState{nil, buildShared(t, base, 1), buildShared(t, base, 2)}
	boxed := flow.MaterializedRows()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := run(sharedJoinPaced(0), Spec{Engine: Concurrent, Shared: shared})
			if err != nil {
				t.Error(err)
				return
			}
			if got := keysOf(res.Rows); !slices.Equal(got, want) {
				t.Errorf("%d rows, private run %d, or they differ", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	// With no column sink the output stage boxes each result once; an
	// attached probe that left the column path would box its probe rows on
	// top.
	if moved := flow.MaterializedRows() - boxed; moved != uint64(4*len(want)) {
		t.Errorf("%d rows materialized by 4 runs of %d results", moved, len(want))
	}
}

// TestSharedStemsSimEngine pins that attachments also work on the
// deterministic simulation engine (same results, same mechanism).
func TestSharedStemsSimEngine(t *testing.T) {
	want := keysOf(mustRun(t, sharedJoin(), Spec{Engine: Sim}).Rows)
	sharedU := buildShared(t, sharedJoin(), 2)
	res, err := run(sharedJoin(), Spec{Engine: Sim, Shared: []*stem.SharedState{nil, nil, sharedU}})
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
	shared := []*stem.SharedState{buildShared(t, base, 0), buildShared(t, base, 1)}
	_, err := run(smallJoin(), Spec{Shared: shared})
	if err == nil {
		t.Fatal("attaching every table must be rejected")
	}
}
