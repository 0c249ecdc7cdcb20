package core

// Standing-query (continuous) tests. The centerpiece is the delta-exactness
// property: a standing multi-way join fed interleaved inserts from
// concurrent writers must emit, across all rounds, exactly the multiset of
// results an equivalent batch run over the final table state produces —
// nothing missing, nothing duplicated. That is the observable consequence
// of the SteM timestamp constraint (paper Table 2) composing across delta
// rounds: a probe matches only strictly-older builds, so every join result
// is produced once, by its last-arriving component.
//
// The handle is driven the way stemsd drives a subscription's: Run once,
// keep it resident, RunDelta per insert, one round at a time.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// table is one base table of a test query: integer columns and their rows.
type table struct {
	name string
	cols []string
	rows [][]int64
}

func intRows(rows [][]int64) []tuple.Row {
	out := make([]tuple.Row, len(rows))
	for i, r := range rows {
		out[i] = make(tuple.Row, len(r))
		for j, v := range r {
			out[i][j] = value.NewInt(v)
		}
	}
	return out
}

// scanQuery binds the tables, each scanned at one row per pace (0 is
// unpaced), under preds.
func scanQuery(pace clock.Duration, preds []pred.P, tabs ...table) *query.Q {
	var schemas []*schema.Table
	var ams []query.AMDecl
	for i, tb := range tabs {
		cols := make([]schema.Column, len(tb.cols))
		for j, c := range tb.cols {
			cols[j] = schema.IntCol(c)
		}
		sch := schema.MustTable(tb.name, cols...)
		schemas = append(schemas, sch)
		ams = append(ams, query.AMDecl{Table: i, Kind: query.Scan, Data: source.MustTable(sch, intRows(tb.rows)),
			ScanSpec: source.ScanSpec{InterArrival: pace}})
	}
	return query.MustNew(schemas, preds, ams)
}

// result is one round's results and the handle's cumulative build count.
type result struct {
	Rows  []resultRow
	Stats struct{ SteMBuilds uint64 }
}

// resultRow is one result tuple of query q.
type resultRow struct {
	q *query.Q
	t *tuple.Tuple
}

// Get returns the value of "Table.column"; ok is false if the reference is
// unknown.
func (r resultRow) Get(ref string) (value.V, bool) {
	name, col, _ := strings.Cut(ref, ".")
	for ti, tb := range r.q.Tables {
		if ci := tb.ColIndex(col); tb.Name == name && ci >= 0 && r.t.Span.Has(ti) {
			return r.t.Value(ti, ci), true
		}
	}
	return value.V{}, false
}

func (r resultRow) String() string { return r.t.String() }

func newResult(q *query.Q, st Stats, outs []eddy.Output) *result {
	res := &result{}
	res.Stats.SteMBuilds = st.Builds
	for _, o := range outs {
		res.Rows = append(res.Rows, resultRow{q, o.T})
	}
	return res
}

func keysOf(rows []resultRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// run builds q under sp, runs it once and releases the handle.
func run(q *query.Q, sp Spec) (*result, error) {
	sp.Q = q
	ex, err := Build(sp)
	if err != nil {
		return nil, err
	}
	defer ex.Release()
	outs, err := ex.Run(context.Background(), nil, nil)
	if err != nil {
		return nil, err
	}
	return newResult(q, ex.Stats(), outs), nil
}

func mustRun(t *testing.T, q *query.Q, sp Spec) *result {
	t.Helper()
	res, err := run(q, sp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// standing is a resident handle whose delta rounds are serialized by mu.
type standing struct {
	mu   sync.Mutex
	ex   *Exec
	hook func(*tuple.Tuple, clock.Time)
}

// open runs q's initial round under sp and keeps the handle resident.
func open(q *query.Q, sp Spec, hook func(*tuple.Tuple, clock.Time)) (*standing, *result, error) {
	sp.Q = q
	ex, err := Build(sp)
	if err != nil {
		return nil, nil, err
	}
	outs, err := ex.Run(context.Background(), hook, nil)
	if err != nil {
		return nil, nil, err
	}
	return &standing{ex: ex, hook: hook}, newResult(q, ex.Stats(), outs), nil
}

// insert runs one delta round with rows arriving at the named table and
// returns exactly that round's new results.
func (s *standing) insert(name string, rows [][]int64) (*result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.ex.spec.Q
	delta := make([][]tuple.Row, len(q.Tables))
	for ti, tb := range q.Tables {
		if tb.Name == name {
			delta[ti] = intRows(rows)
		}
	}
	outs, err := s.ex.RunDelta(context.Background(), delta, s.hook, nil)
	if err != nil {
		return nil, err
	}
	return newResult(q, s.ex.Stats(), outs), nil
}

// streamQuery is the standing 3-way chain join R ⋈ S ⋈ T used throughout.
func streamQuery(initial map[string][][]int64) *query.Q {
	return scanQuery(clock.Millisecond, []pred.P{pred.EquiJoin(0, 1, 1, 0), pred.EquiJoin(1, 1, 2, 0)},
		table{"R", []string{"rk", "b"}, initial["R"]},
		table{"S", []string{"b", "c"}, initial["S"]},
		table{"T", []string{"c", "tk"}, initial["T"]})
}

// insBatch is one writer call: rows appended to a table in a single round.
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

// standingConfigs is the acceptance matrix: both engines. The concurrent
// engine carries scans and the injected delta rows as column batches
// ("columnar"); the simulator is row-at-a-time throughout.
func standingConfigs() []struct {
	name string
	sp   Spec
} {
	return []struct {
		name string
		sp   Spec
	}{
		{"sim", Spec{Engine: Sim}},
		{"concurrent/columnar", Spec{Engine: Concurrent}},
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

				st, res, err := open(streamQuery(initial), cfg.sp, nil)
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
							delta, err := st.insert(inserts[i].table, inserts[i].rows)
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

				final := make(map[string][][]int64)
				for tb, rows := range initial {
					final[tb] = append(final[tb], rows...)
				}
				for _, b := range inserts {
					final[b.table] = append(final[b.table], b.rows...)
				}
				oracle := mustRun(t, streamQuery(final), cfg.sp)
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
			st, res, err := open(streamQuery(initial), cfg.sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("round 0: %d rows, want 1", len(res.Rows))
			}

			delta, err := st.insert("R", [][]int64{{2, 5}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 1 {
				t.Fatalf("matching insert: %d delta rows, want 1", len(delta.Rows))
			}
			if v, ok := delta.Rows[0].Get("R.rk"); !ok || v.I != 2 {
				t.Fatalf("delta row = %s, want R.rk=2", delta.Rows[0])
			}

			delta, err = st.insert("R", [][]int64{{3, 999}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("non-matching insert: %d delta rows, want 0", len(delta.Rows))
			}

			delta, err = st.insert("R", [][]int64{{2, 5}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("duplicate insert: %d delta rows, want 0 (dedup)", len(delta.Rows))
			}

			// A new S row joins both resident R rows (1,5) and (2,5) with T.
			delta, err = st.insert("S", [][]int64{{5, 8}, {5, 8}})
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.Rows) != 0 {
				t.Fatalf("duplicate S insert: %d delta rows, want 0", len(delta.Rows))
			}
			delta, err = st.insert("T", [][]int64{{8, 101}})
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
		sp   Spec
	}{
		{"sim", Spec{Windows: []int{1, 0}}},
		{"concurrent", Spec{Engine: Concurrent, Windows: []int{1, 0}}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			q := scanQuery(clock.Millisecond, []pred.P{pred.EquiJoin(0, 1, 1, 0)},
				table{"R", []string{"rk", "b"}, [][]int64{{1, 5}}},
				table{"S", []string{"b", "sv"}, nil})
			st, res, err := open(q, cfg.sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 {
				t.Fatalf("round 0: %d rows, want 0 (S empty)", len(res.Rows))
			}
			// Evicts R(1,5) from the window-1 SteM.
			if _, err := st.insert("R", [][]int64{{2, 5}}); err != nil {
				t.Fatal(err)
			}
			delta, err := st.insert("S", [][]int64{{5, 50}})
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

// TestStandingOnResult verifies the output hook streams delta rows and is
// re-installed across rounds on both engines (a concurrent round clears it).
func TestStandingOnResult(t *testing.T) {
	for _, cfg := range []struct {
		name string
		sp   Spec
	}{
		{"sim", Spec{}},
		{"concurrent", Spec{Engine: Concurrent}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			var mu sync.Mutex
			var streamed []string
			hook := func(tu *tuple.Tuple, _ clock.Time) {
				mu.Lock()
				streamed = append(streamed, tu.String())
				mu.Unlock()
			}
			initial := map[string][][]int64{"R": {{1, 5}}, "S": {{5, 8}}, "T": {{8, 9}}}
			st, res, err := open(streamQuery(initial), cfg.sp, hook)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := st.insert("R", [][]int64{{2, 5}})
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
