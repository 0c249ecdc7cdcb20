package stems

import (
	"sort"
	"testing"
	"time"
)

func smallJoin() *Query {
	return NewQuery().
		Table("R", Ints("key", "a"), [][]int64{{1, 10}, {2, 20}, {3, 10}}).
		Table("S", Ints("x", "y"), [][]int64{{10, 100}, {20, 200}}).
		Scan("R", time.Millisecond).
		Scan("S", time.Millisecond).
		Where("R.a", "=", "S.x")
}

func keysOf(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestQuickstartJoin(t *testing.T) {
	res, err := smallJoin().Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if v, ok := res.Rows[0].Get("S.y"); !ok || v.K == 0 {
		t.Error("Get failed")
	}
	if _, ok := res.Rows[0].Get("Z.q"); ok {
		t.Error("Get on unknown ref must fail")
	}
	if res.Stats.RoutingSteps == 0 || res.Stats.SteMBuilds != 5 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestEnginesAgree(t *testing.T) {
	simRes, err := smallJoin().Run(Options{Engine: Sim})
	if err != nil {
		t.Fatal(err)
	}
	conRes, err := smallJoin().Run(Options{Engine: Concurrent})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keysOf(simRes.Rows), keysOf(conRes.Rows)
	if len(a) != len(b) {
		t.Fatalf("engines disagree: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func mustRun(t *testing.T, q *Query, opts Options) *Result {
	t.Helper()
	res, err := q.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllPoliciesAgree(t *testing.T) {
	var base []string
	for _, p := range []Policy{Fixed, Lottery, BenefitCost} {
		res, err := smallJoin().Run(Options{Policy: p, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		got := keysOf(res.Rows)
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("policy %v: %d rows, want %d", p, len(got), len(base))
		}
	}
}

func TestSelectionsAndConstants(t *testing.T) {
	res, err := smallJoin().Where("R.key", "<=", "2").Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestIndexAccessMethod(t *testing.T) {
	q := NewQuery().
		Table("R", Ints("key", "a"), [][]int64{{1, 10}, {2, 20}}).
		Table("S", Ints("x", "y"), [][]int64{{10, 100}, {20, 200}}).
		Scan("R", time.Millisecond).
		Index("S", []string{"x"}, 5*time.Millisecond, 1).
		Where("R.a", "=", "S.x")
	res, err := q.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Stats.IndexProbes == 0 {
		t.Error("index AM was never probed")
	}
}

func TestHybridOption(t *testing.T) {
	q := NewQuery().
		Table("R", Ints("key"), [][]int64{{0}, {1}, {2}, {3}}).
		Table("T", Ints("key"), [][]int64{{0}, {1}, {2}, {3}}).
		Scan("R", time.Millisecond).
		Scan("T", 2*time.Millisecond).
		Index("T", []string{"key"}, 3*time.Millisecond, 1).
		Where("R.key", "=", "T.key")
	res, err := q.Run(Options{BounceForIndexChoice: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("hybrid got %d rows, want 4", len(res.Rows))
	}
}

func TestWindowedRun(t *testing.T) {
	rows := make([][]int64, 40)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 4)}
	}
	q := func() *Query {
		return NewQuery().
			Table("A", Ints("seq", "g"), rows).
			Table("B", Ints("seq", "g"), rows).
			Scan("A", time.Millisecond).
			Scan("B", time.Millisecond).
			Where("A.g", "=", "B.g")
	}
	full, err := q().Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	win, err := q().Run(Options{Window: map[string]int{"A": 4, "B": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Rows) >= len(full.Rows) {
		t.Errorf("windowed run must produce fewer results: %d vs %d", len(win.Rows), len(full.Rows))
	}
}

func TestSkipBuildOption(t *testing.T) {
	res, err := smallJoin().Run(Options{SkipBuildTable: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("skip-build got %d rows, want 3", len(res.Rows))
	}
	// R singletons never built: only S rows materialize.
	if res.Stats.SteMBuilds != 2 {
		t.Errorf("SteMBuilds = %d, want 2", res.Stats.SteMBuilds)
	}
}

// TestSkipBuildConcurrentComplete pins Theorem 2 (no lost result) for §3.5's
// relaxed build rule on the concurrent engine. With SkipBuildTable the
// non-skip table's rows are pure state and the skip table's prober is
// consumed as soon as that SteM looks complete, so a paced scan's EOT
// overtaking its own rows silently drops results with Stuck() == 0 — which
// happened in about one fresh Run in two while every delayed emission left
// on its own goroutine.
func TestSkipBuildConcurrentComplete(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 200
	}
	for name, opts := range map[string]Options{
		"skipR":       {Engine: Concurrent, SkipBuildTable: "R"},
		"skipS":       {Engine: Concurrent, SkipBuildTable: "S"},
		"skipR/fixed": {Engine: Concurrent, SkipBuildTable: "R", Policy: Fixed},
	} {
		t.Run(name, func(t *testing.T) {
			short := 0
			for i := 0; i < runs; i++ {
				res, err := smallJoin().Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 3 {
					short++
				}
			}
			if short > 0 {
				t.Fatalf("%d of %d fresh runs returned fewer than 3 rows", short, runs)
			}
		})
	}
}

func TestMirrorDedup(t *testing.T) {
	rows := [][]int64{{1, 10}, {2, 20}, {3, 10}}
	q := NewQuery().
		Table("R", Ints("key", "a"), rows).
		Table("S", Ints("x", "y"), [][]int64{{10, 100}, {20, 200}}).
		Scan("R", time.Millisecond).
		Mirror("R", rows, 3*time.Millisecond).
		Scan("S", time.Millisecond).
		Where("R.a", "=", "S.x")
	res, err := q.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("mirrored sources must still produce 3 rows, got %d", len(res.Rows))
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []*Query{
		NewQuery().Table("R", Ints("a"), nil).Table("R", Ints("a"), nil),
		NewQuery().Scan("missing", time.Millisecond),
		NewQuery().Table("R", Ints("a"), [][]int64{{1}}).Index("R", []string{"z"}, 0, 1),
		NewQuery().Table("R", Ints("a"), [][]int64{{1}}).Scan("R", time.Millisecond).Where("R.z", "=", "1"),
		NewQuery().Table("R", Ints("a"), [][]int64{{1}}).Scan("R", time.Millisecond).Where("R.a", "~", "1"),
	}
	for i, q := range cases {
		if _, err := q.Build(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestOnResultStreaming(t *testing.T) {
	var streamed int
	_, err := smallJoin().Run(Options{OnResult: func(Row) { streamed++ }})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 3 {
		t.Errorf("streamed %d rows, want 3", streamed)
	}
}

func TestStringValues(t *testing.T) {
	q := NewQuery().
		TableValues("R", []Col{{Name: "id"}, {Name: "name", Str: true}},
			[][]Value{{Int(1), Str("ann")}, {Int(2), Str("bob")}}).
		Scan("R", time.Millisecond).
		Where("R.name", "=", "ann")
	res, err := q.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("string selection got %d rows", len(res.Rows))
	}
}
