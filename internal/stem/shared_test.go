package stem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// sharedProbeKeys attaches a probe-only SteM to ss (table S of twoTableQ,
// keyed on S.x) and returns the multiset of concatenations R probes with
// a = 0..keys-1 produce.
func sharedProbeKeys(t *testing.T, ss *SharedState, keys int) map[string]int {
	t.Helper()
	q := twoTableQ(t, true, false)
	c := &Counter{}
	s := New(Config{Table: 1, Q: q, TS: c, Shared: ss})
	got := make(map[string]int)
	for a := 0; a < keys; a++ {
		p := singleton(2, 0, row(int64(1000+a), int64(a)))
		p.CompTS[0] = c.Next()
		matchKeys(p, process(t, s, p), got)
	}
	return got
}

// TestSharedExtendAgrees pins the one-insertion-path claim: building a state
// over rows[:k] and extending it with the rest, in any cuts — duplicate rows
// on both sides of a cut included — stores exactly what BuildShared(rows)
// stores: same distinct rows, same high-water mark, same footprint, and the
// same answer to every probe.
func TestSharedExtendAgrees(t *testing.T) {
	const keys = 20
	rng := rand.New(rand.NewSource(7))
	rows := make([]tuple.Row, 400)
	for i := range rows {
		// 20 × 6 distinct rows drawn 400 times: most rows recur, on both
		// sides of any cut.
		rows[i] = row(int64(rng.Intn(keys)), int64(rng.Intn(6)))
	}
	q := twoTableQ(t, true, false)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := SharedConfig{KeyCols: JoinCols(q, 1), Shards: shards}
			whole, err := BuildShared(cfg, rows)
			if err != nil {
				t.Fatal(err)
			}
			want := sharedProbeKeys(t, whole, keys)
			if len(want) == 0 || whole.Rows() == len(rows) {
				t.Fatalf("test data is broken: %d probe results, %d of %d rows distinct", len(want), whole.Rows(), len(rows))
			}
			for trial := 0; trial < 25; trial++ {
				k1 := rng.Intn(len(rows) + 1)
				k2 := k1 + rng.Intn(len(rows)-k1+1)
				ss, err := BuildShared(cfg, rows[:k1])
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range [][]tuple.Row{rows[k1:k2], rows[k2:]} {
					ss.Extend(part)
				}
				if ss.Rows() != whole.Rows() || ss.highWater != whole.highWater || ss.ResidentBytes() != whole.ResidentBytes() {
					t.Fatalf("cuts %d,%d: rows/highwater/bytes = %d/%d/%d, want %d/%d/%d", k1, k2,
						ss.Rows(), ss.highWater, ss.ResidentBytes(), whole.Rows(), whole.highWater, whole.ResidentBytes())
				}
				got := sharedProbeKeys(t, ss, keys)
				if len(got) != len(want) {
					t.Fatalf("cuts %d,%d: %d distinct probe results, want %d", k1, k2, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("cuts %d,%d: result %s ×%d, want ×%d", k1, k2, k, got[k], n)
					}
				}
			}
		})
	}
}
