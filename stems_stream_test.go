package stems

// Standing-query (continuous) tests. The centerpiece is the delta-exactness
// property: a standing multi-way join fed interleaved inserts from
// concurrent writers must emit, across all rounds, exactly the multiset of
// results an equivalent batch run over the final table state produces —
// nothing missing, nothing duplicated. That is the observable consequence
// of the SteM timestamp constraint composing across delta rounds.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// streamQuery is the standing 3-way chain join R ⋈ S ⋈ T used throughout.
func streamQuery(initial map[string][][]int64) *Query {
	return NewQuery().
		Table("R", Ints("rk", "b"), initial["R"]).
		Table("S", Ints("b", "c"), initial["S"]).
		Table("T", Ints("c", "tk"), initial["T"]).
		Scan("R", time.Millisecond).
		Scan("S", time.Millisecond).
		Scan("T", time.Millisecond).
		Where("R.b", "=", "S.b").
		Where("S.c", "=", "T.c")
}

// insBatch is one writer call: rows appended to a table in a single Insert.
type insBatch struct {
	table string
	rows  [][]int64
}

// genStream draws a random initial state (possibly empty tables — the pure
// streaming case) and a random insert schedule over a small join-key domain
// so that cross-round matches actually occur.
func genStream(rng *rand.Rand) (initial map[string][][]int64, inserts []insBatch) {
	key := func() int64 { return int64(rng.Intn(6)) }
	rowFor := func(table string) []int64 {
		switch table {
		case "R":
			return []int64{int64(rng.Intn(50)), key()}
		case "S":
			return []int64{key(), key()}
		default:
			return []int64{key(), int64(rng.Intn(50))}
		}
	}
	initial = make(map[string][][]int64)
	for _, tb := range []string{"R", "S", "T"} {
		n := rng.Intn(5) // 0 initial rows is a valid (and important) case
		for i := 0; i < n; i++ {
			initial[tb] = append(initial[tb], rowFor(tb))
		}
	}
	nb := 12 + rng.Intn(8)
	for i := 0; i < nb; i++ {
		tb := []string{"R", "S", "T"}[rng.Intn(3)]
		b := insBatch{table: tb}
		for j := 0; j < 1+rng.Intn(2); j++ {
			b.rows = append(b.rows, rowFor(tb))
		}
		inserts = append(inserts, b)
	}
	return initial, inserts
}

// standingConfigs is the acceptance matrix: engines × representation. At its default batch size the concurrent engine carries
// scans columnar and the injected delta singletons as rows ("columnar"); at
// BatchSize 1 it is row-at-a-time throughout ("rows"), like the simulator.
func standingConfigs() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"sim", Options{Engine: Sim}},
		{"concurrent/columnar", Options{Engine: Concurrent}},
		{"concurrent/rows", Options{Engine: Concurrent, BatchSize: 1}},
	}
}

// TestStandingJoinDeltaExact is the delta-equivalence property test: open a
// standing 3-way join, feed it a randomized insert schedule interleaved
// across three concurrent writers, and assert the union of the initial
// result and every per-insert delta equals — as a multiset — a batch re-run
// of the same query over the final table state. Seeded and deterministic in
// the data; the writer interleaving is real concurrency (this test is in
// the CI race job's package list).
func TestStandingJoinDeltaExact(t *testing.T) {
	seeds := []int64{1, 7, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cfg := range standingConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				initial, inserts := genStream(rng)

				st, res, err := streamQuery(initial).Open(cfg.opts)
				if err != nil {
					t.Fatalf("seed %d: Open: %v", seed, err)
				}
				var mu sync.Mutex
				var all []string
				for _, r := range res.Rows {
					all = append(all, r.String())
				}

				const writers = 3
				errCh := make(chan error, writers)
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := w; i < len(inserts); i += writers {
							delta, err := st.Insert(inserts[i].table, inserts[i].rows)
							if err != nil {
								errCh <- fmt.Errorf("insert %d: %w", i, err)
								return
							}
							mu.Lock()
							for _, r := range delta.Rows {
								all = append(all, r.String())
							}
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("seed %d: Close: %v", seed, err)
				}

				final := make(map[string][][]int64)
				for tb, rows := range initial {
					final[tb] = append(final[tb], rows...)
				}
				for _, b := range inserts {
					final[b.table] = append(final[b.table], b.rows...)
				}
				oracle := mustRun(t, streamQuery(final), cfg.opts)
				want := keysOf(oracle.Rows)
				sort.Strings(all)
				if len(all) != len(want) {
					t.Fatalf("seed %d: standing emitted %d rows, batch oracle %d\nstanding: %v\noracle: %v",
						seed, len(all), len(want), all, want)
				}
				for i := range want {
					if all[i] != want[i] {
						t.Fatalf("seed %d: row %d differs: standing %q, oracle %q", seed, i, all[i], want[i])
					}
				}
			}
		})
	}
}

// TestStandingDeltaBasics pins the single-round contract on a tiny join:
// round 0 equals the batch result, a matching insert emits exactly the new
// combinations, a non-matching insert emits nothing, and a duplicate row is
// consumed by set-semantics dedup.
func TestStandingDeltaBasics(t *testing.T) {
	for _, cfg := range standingConfigs()[:2] {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			initial := map[string][][]int64{
				"R": {{1, 5}},
				"S": {{5, 8}},
				"T": {{8, 100}},
			}
			st, res, err := streamQuery(initial).Open(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if len(res.Rows) != 1 {
				t.Fatalf("round 0: %d rows, want 1", len(res.Rows))
			}

			delta, err := st.Insert("R", [][]int64{{2, 5}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 1 {
				t.Fatalf("matching insert: %d delta rows, want 1", len(delta.Rows))
			}
			if v, ok := delta.Rows[0].Get("R.rk"); !ok || v.I != 2 {
				t.Fatalf("delta row = %s, want R.rk=2", delta.Rows[0])
			}

			delta, err = st.Insert("R", [][]int64{{3, 999}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("non-matching insert: %d delta rows, want 0", len(delta.Rows))
			}

			delta, err = st.Insert("R", [][]int64{{2, 5}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("duplicate insert: %d delta rows, want 0 (dedup)", len(delta.Rows))
			}

			// A new S row joins both resident R rows (1,5) and (2,5) with T.
			delta, err = st.Insert("S", [][]int64{{5, 8}, {5, 8}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("duplicate S insert: %d delta rows, want 0", len(delta.Rows))
			}
			delta, err = st.Insert("T", [][]int64{{8, 101}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 2 {
				t.Fatalf("T insert: %d delta rows, want 2 (both R rows)", len(delta.Rows))
			}
		})
	}
}

// TestStandingWindowedDelta pins streaming-window semantics: a windowed
// table's SteM holds only the most recent rows, and delta results reflect
// the window contents at arrival time — joins against evicted rows are
// intentionally not produced.
func TestStandingWindowedDelta(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"sim", Options{Window: map[string]int{"R": 1}}},
		{"concurrent", Options{Engine: Concurrent, Window: map[string]int{"R": 1}}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			q := NewQuery().
				Table("R", Ints("rk", "b"), [][]int64{{1, 5}}).
				Table("S", Ints("b", "sv"), nil).
				Scan("R", time.Millisecond).
				Scan("S", time.Millisecond).
				Where("R.b", "=", "S.b")
			st, res, err := q.Open(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if len(res.Rows) != 0 {
				t.Fatalf("round 0: %d rows, want 0 (S empty)", len(res.Rows))
			}
			// Evicts R(1,5) from the window-1 SteM.
			if _, err := st.Insert("R", [][]int64{{2, 5}}); err != nil {
				t.Fatal(err)
			}
			delta, err := st.Insert("S", [][]int64{{5, 50}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 1 {
				t.Fatalf("S insert: %d delta rows, want 1 (only in-window R)", len(delta.Rows))
			}
			if v, ok := delta.Rows[0].Get("R.rk"); !ok || v.I != 2 {
				t.Fatalf("delta joined evicted row: %s, want R.rk=2", delta.Rows[0])
			}
		})
	}
}

// TestStandingOnResult verifies the OnResult hook streams delta rows and is
// re-installed across rounds on both engines (Concurrent's Reset clears it).
func TestStandingOnResult(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"sim", Options{}},
		{"concurrent", Options{Engine: Concurrent}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			var mu sync.Mutex
			var streamed []string
			opts := cfg.opts
			opts.OnResult = func(r Row) {
				mu.Lock()
				streamed = append(streamed, r.String())
				mu.Unlock()
			}
			initial := map[string][][]int64{"R": {{1, 5}}, "S": {{5, 8}}, "T": {{8, 9}}}
			st, res, err := streamQuery(initial).Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			delta, err := st.Insert("R", [][]int64{{2, 5}})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := len(res.Rows) + len(delta.Rows); len(streamed) != want {
				t.Fatalf("OnResult saw %d rows, want %d", len(streamed), want)
			}
		})
	}
}

// TestStandingRejectsUnsupportedOptions pins the Open validation surface.
func TestStandingRejectsUnsupportedOptions(t *testing.T) {
	base := func() *Query {
		return streamQuery(map[string][][]int64{"R": {{1, 2}}, "S": {{2, 3}}, "T": {{3, 4}}})
	}
	cases := []struct {
		name string
		q    *Query
		opts Options
	}{
		{"skip build", base(), Options{SkipBuildTable: "R"}},
		{"deadline", base(), Options{Deadline: time.Second}},
		{"on partial", base(), Options{OnPartial: func(Row) {}}},
		{"explain", base(), Options{Explain: true}},
		{"index am", NewQuery().
			Table("R", Ints("rk", "b"), [][]int64{{1, 2}}).
			Table("S", Ints("b", "sv"), [][]int64{{2, 3}}).
			Scan("R", time.Millisecond).
			Index("S", []string{"b"}, time.Millisecond, 1).
			Where("R.b", "=", "S.b"), Options{}},
	}
	for _, tc := range cases {
		if st, _, err := tc.q.Open(tc.opts); err == nil {
			st.Close()
			t.Errorf("%s: Open accepted unsupported options", tc.name)
		}
	}
	// Shared state rejection needs a built state to hand in.
	shq := base()
	ss, err := shq.BuildSharedState("S")
	if err != nil {
		t.Fatal(err)
	}
	if st, _, err := base().Open(Options{Shared: map[string]*SharedState{"S": ss}}); err == nil {
		st.Close()
		t.Error("Open accepted Shared state")
	}
}

// TestStandingInsertValidation pins Insert's error surface: unknown tables,
// schema-invalid rows, and use after Close all fail without disturbing the
// resident state.
func TestStandingInsertValidation(t *testing.T) {
	initial := map[string][][]int64{"R": {{1, 5}}, "S": {{5, 8}}, "T": {{8, 9}}}
	st, _, err := streamQuery(initial).Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("Z", [][]int64{{1}}); err == nil {
		t.Error("Insert into unknown table succeeded")
	}
	if _, err := st.Insert("R", [][]int64{{1, 2, 3}}); err == nil {
		t.Error("Insert with wrong arity succeeded")
	}
	if _, err := st.InsertValues("R", [][]Value{{Str("no"), Int(1)}}); err == nil {
		t.Error("Insert with wrong column type succeeded")
	}
	// Validation failures must not have broken the round machinery.
	if delta, err := st.Insert("R", [][]int64{{2, 5}}); err != nil || len(delta.Rows) != 1 {
		t.Fatalf("post-validation insert: delta=%v err=%v, want 1 row", delta, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("R", [][]int64{{3, 5}}); err == nil {
		t.Error("Insert after Close succeeded")
	}
}
