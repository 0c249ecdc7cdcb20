package stem

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/tuple"
	"repro/internal/value"
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

// TestAttachedColProbeIsRowProbe pins that an attached SteM's columnar probe
// is its row probe: the same probe batch — duplicates, NULL keys, keys that
// find nothing, a selection vector — through the columnar service calls and,
// materialized, through ProcessBatch gives the same result multiset, every
// shared component stamped 0, nothing bounced, the same Probes and Matches;
// and the columnar side emits no row and boxes none (the Materialize counter
// stays put). The shared dictionaries hash into two bits, so every bucket
// walk crosses keys that collide with the one probed. At four shards the
// columnar batch is split per shard first, as the engine's splitCol does.
func TestAttachedColProbeIsRowProbe(t *testing.T) {
	const keys = 12
	rng := rand.New(rand.NewSource(11))
	q := twoTableQ(t, true, false)
	stored := make([]tuple.Row, 300)
	for i := range stored {
		x := value.NewInt(int64(rng.Intn(keys)))
		if rng.Intn(10) == 0 {
			x = value.V{}
		}
		stored[i] = tuple.Row{x, value.NewInt(int64(rng.Intn(4)))} // ≤ 52 distinct rows: most recur
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ss, err := BuildShared(SharedConfig{KeyCols: JoinCols(q, 1), Shards: shards}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ss.dicts {
				d.mask = collisionMask
			}
			ss.Extend(stored)

			// The probe batch: built R rows whose a is a stored key, NULL, or a
			// key no stored row has; every third row deselected.
			c := &Counter{}
			cb := flow.GetColBatch(2)
			cb.Span, cb.Built = tuple.Single(0), tuple.Single(0)
			cb.EnsureCols(0, 2)
			for i := 0; i < 200; i++ {
				a := value.NewInt(int64(rng.Intn(keys + 3)))
				if rng.Intn(8) == 0 {
					a = value.V{}
				}
				cb.Tabs[0].Cols[0].AppendV(value.NewInt(int64(i / 2))) // each probe row twice over
				cb.Tabs[0].Cols[1].AppendV(a)
				cb.SetTS(0, i, c.Next())
			}
			cb.SetRowCount(200)
			sel := cb.EnsureSel()[:0]
			for i := 0; i < 200; i++ {
				if i%3 != 0 {
					sel = append(sel, int32(i))
				}
			}
			cb.Sel = sel
			probes := cb.Materialize()

			// Row side.
			rowS := New(Config{Table: 1, Q: q, TS: c, Shared: ss})
			want := make(map[string]int)
			ems, _ := rowS.ProcessBatch(flow.BatchOf(probes...), 0)
			for _, em := range ems {
				if slices.Contains(probes, em.T) {
					t.Fatalf("row probe bounced %v", em.T)
				}
				if em.T.CompTS[1] != 0 {
					t.Fatalf("row result %v carries shared timestamp %d, want 0", em.T, em.T.CompTS[1])
				}
				want[em.T.ResultKey()]++
			}
			if len(want) == 0 {
				t.Fatal("test data is broken: the row probe matched nothing")
			}

			// Columnar side.
			colS := New(Config{Table: 1, Q: q, TS: c, Shared: ss})
			parts := map[int]*flow.ColBatch{-1: cb}
			if shards > 1 {
				delete(parts, -1)
				for k := 0; k < cb.Rows(); k++ {
					i := cb.RowAt(k)
					sh := colS.ShardOfCol(cb, i)
					if parts[sh] == nil {
						parts[sh] = flow.GetColBatch(2)
						parts[sh].CopyHeaderFrom(cb)
					}
					parts[sh].AppendRowFrom(cb, i)
				}
			}
			boxed := flow.MaterializedRows()
			var outs []*flow.ColBatch
			for sh, p := range parts {
				rows, cols, _ := colS.processCol(&flow.Batch{Col: p}, sh, 0)
				if len(rows) != 0 {
					t.Fatalf("columnar probe emitted %d rows", len(rows))
				}
				for _, em := range cols {
					if em.B == p {
						t.Fatal("columnar probe bounced its input")
					}
					outs = append(outs, em.B)
				}
			}
			if d := flow.MaterializedRows() - boxed; d != 0 {
				t.Fatalf("columnar probe materialized %d rows: it left the column path", d)
			}
			got := make(map[string]int)
			for _, ob := range outs {
				for k := 0; k < ob.Rows(); k++ {
					if ts := ob.TSAt(1, ob.RowAt(k)); ts != 0 {
						t.Fatalf("columnar result carries shared timestamp %d, want 0", ts)
					}
				}
				for _, tp := range ob.Materialize() {
					got[tp.ResultKey()]++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d distinct columnar results, want %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("result %s ×%d from the columnar probe, ×%d from the row probe", k, got[k], n)
				}
			}
			rs, cs := rowS.Stats(), colS.Stats()
			if rs.Probes != cs.Probes || rs.Matches != cs.Matches || cs.ProbeBounces != 0 || rs.ProbeBounces != 0 {
				t.Fatalf("stats differ: row %+v, columnar %+v", rs, cs)
			}

			// A build batch still reaches the row path's panic.
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "attached") {
					t.Fatalf("build batch on an attached SteM: recovered %v, want the build panic", r)
				}
			}()
			colS.ProcessColBatch(&flow.Batch{Col: srcBatch(2, 1, stored[:4])}, 0)
		})
	}
}

func TestRowFootprint(t *testing.T) {
	small := RowFootprint(row(1, 2))
	big := RowFootprint(tuple.Row{value.NewStr("a long string payload"), value.NewInt(1)})
	if small <= 0 || big <= small {
		t.Fatalf("footprints: small=%d big=%d", small, big)
	}
}
