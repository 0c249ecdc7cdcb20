package stem

// Property test: every Dict implementation must agree on the candidate sets
// it can produce. Dictionaries may return supersets (the SteM re-verifies
// every predicate), so equivalence is checked modulo superset filtering:
// each dictionary's candidates are filtered down by the lookup's own
// constraints and the filtered multisets must be identical.
//
// The masked variants shrink every hash to a few bits, forcing constant
// bucket collisions, so the hash-with-verify paths (index buckets, rowSet
// dedup, eviction bucket removal) are exercised under adversarial hashing —
// something real FNV-1a keys would essentially never trigger.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/pred"
	"repro/internal/tuple"
	"repro/internal/value"
)

// collisionMask shrinks hashes to 2 bits: with a handful of distinct rows,
// every bucket holds several unrelated keys.
const collisionMask = 0x3

type dictUnderTest struct {
	name string
	d    Dict
	// fresh makes an empty replacement when the workload recycles its
	// dictionaries; nil for the HashDicts, which are recycled the way a
	// released SteM's is: cleared in place and retargeted.
	fresh func() Dict
}

func newDictsUnderTest() []dictUnderTest {
	cols := []int{0, 1}
	masked := NewHashDict(cols)
	masked.mask = collisionMask
	listMasked := func() Dict { d := NewListDict(); d.mask = collisionMask; return d }
	sortedMasked := func() Dict { d := NewSortedDict(0, 8); d.mask = collisionMask; return d }
	adaptive := func() Dict { return NewAdaptiveDict(cols, 16) }
	return []dictUnderTest{
		{"HashDict", NewHashDict(cols), nil},
		{"HashDict/masked", masked, nil},
		{"ListDict/masked", listMasked(), listMasked},
		{"SortedDict/masked", sortedMasked(), sortedMasked},
		{"AdaptiveDict", adaptive(), adaptive},
	}
}

// recycle empties every dictionary. The HashDicts keep their storage and come
// back indexed on cols — any subset of the row's columns: candidates may be
// supersets, so which columns are indexed must not show.
func recycle(duts []dictUnderTest, cols []int) {
	for i := range duts {
		dut := &duts[i]
		if dut.fresh != nil {
			dut.d = dut.fresh()
			continue
		}
		hd := dut.d.(*HashDict)
		mask := hd.mask
		hd.Clear()
		hd.retarget(cols)
		hd.mask = mask
	}
}

// randRow draws from a deliberately small domain so inserts collide on join
// keys and lookups actually match, mixing ints and strings across kinds.
func randRow(rng *rand.Rand) tuple.Row {
	v := func() value.V {
		if rng.Intn(4) == 0 {
			return value.NewStr(fmt.Sprintf("s%d", rng.Intn(4)))
		}
		return value.NewInt(int64(rng.Intn(6)))
	}
	return tuple.Row{v(), v()}
}

func randLookup(rng *rand.Rand) Lookup {
	var lk Lookup
	switch rng.Intn(4) {
	case 0: // full scan
	case 1: // range condition
		ops := []pred.Op{pred.Lt, pred.Le, pred.Gt, pred.Ge, pred.Ne}
		lk.Ranges = []RangeCond{{
			Col: rng.Intn(2),
			Op:  ops[rng.Intn(len(ops))],
			Val: value.NewInt(int64(rng.Intn(6))),
		}}
	default: // equality on one or both columns
		c := rng.Intn(2)
		lk.EquiCols = []int{c}
		lk.EquiVals = []value.V{value.NewInt(int64(rng.Intn(6)))}
		if rng.Intn(3) == 0 {
			lk.EquiCols = append(lk.EquiCols, 1-c)
			lk.EquiVals = append(lk.EquiVals, value.NewInt(int64(rng.Intn(6))))
		}
	}
	return lk
}

// satisfies applies the lookup's own constraints to an entry — the superset
// filter a SteM's predicate verification would apply.
func satisfies(e Entry, lk Lookup) bool {
	for i, c := range lk.EquiCols {
		if !e.Row[c].Equal(lk.EquiVals[i]) {
			return false
		}
	}
	for _, rc := range lk.Ranges {
		if !evalRange(e.Row[rc.Col], rc) {
			return false
		}
	}
	return true
}

// canonical renders a filtered candidate multiset order-independently.
func canonical(es []Entry, lk Lookup) string {
	keys := make([]string, 0, len(es))
	for _, e := range es {
		if satisfies(e, lk) {
			keys = append(keys, fmt.Sprintf("%s@%d", e.Row.Key(), e.TS))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestDictEquivalence drives randomized insert/probe/evict workloads through
// every dictionary and asserts identical filtered candidates, duplicate
// detection, sizes, and eviction victims. Now and then the workload recycles
// the dictionaries mid-stream — the HashDicts are cleared and reused, with the
// same indexed columns or different ones — and carries on.
func TestDictEquivalence(t *testing.T) {
	retargets := [][]int{{0, 1}, {1}, {0}, {}, {1, 0}}
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			duts := newDictsUnderTest()
			var ts tuple.Timestamp
			for op := 0; op < 400; op++ {
				if rng.Intn(60) == 0 {
					recycle(duts, retargets[rng.Intn(len(retargets))])
				}
				switch rng.Intn(5) {
				case 0, 1: // insert (SteM-style: dedup via Contains first)
					row := randRow(rng)
					dup := duts[0].d.Contains(row)
					for _, dut := range duts[1:] {
						if got := dut.d.Contains(row); got != dup {
							t.Fatalf("op %d: %s.Contains(%s) = %v, %s says %v",
								op, dut.name, row, got, duts[0].name, dup)
						}
					}
					if dup {
						continue
					}
					ts++
					for _, dut := range duts {
						dut.d.Insert(row.Clone(), ts)
					}
				case 2, 3: // probe
					lk := randLookup(rng)
					want := canonical(duts[0].d.Candidates(lk), lk)
					for _, dut := range duts[1:] {
						if got := canonical(dut.d.Candidates(lk), lk); got != want {
							t.Fatalf("op %d: %s.Candidates mismatch\n got: %s\nwant: %s",
								op, dut.name, got, want)
						}
					}
				case 4: // evict
					e0, ok0 := duts[0].d.Evict()
					for _, dut := range duts[1:] {
						e, ok := dut.d.Evict()
						if ok != ok0 {
							t.Fatalf("op %d: %s.Evict ok = %v, want %v", op, dut.name, ok, ok0)
						}
						if ok && (!e.Row.Equal(e0.Row) || e.TS != e0.TS) {
							t.Fatalf("op %d: %s evicted %s@%d, %s evicted %s@%d",
								op, dut.name, e.Row, e.TS, duts[0].name, e0.Row, e0.TS)
						}
					}
				}
				n := duts[0].d.Len()
				for _, dut := range duts[1:] {
					if dut.d.Len() != n {
						t.Fatalf("op %d: %s.Len = %d, want %d", op, dut.name, dut.d.Len(), n)
					}
				}
				max := duts[0].d.MaxTS()
				for _, dut := range duts[1:] {
					if dut.d.MaxTS() != max {
						t.Fatalf("op %d: %s.MaxTS = %d, want %d", op, dut.name, dut.d.MaxTS(), max)
					}
				}
			}
		})
	}
}

// TestDictEvictAlongChain evicts the head, then the middle, then the tail of
// one key's chain (other keys' rows interleaved, so the chain's positions are
// not adjacent), checking every dictionary against the others after each
// eviction and again once the chain is empty and refilled.
func TestDictEvictAlongChain(t *testing.T) {
	duts := newDictsUnderTest()
	hot := int64(3)
	rows := []tuple.Row{ // the hot key is column 0 of rows 0, 3 and 6
		row(hot, 0), row(1, 1), row(2, 2), row(hot, 3), row(4, 4), row(5, 5), row(hot, 6),
	}
	lookups := []Lookup{
		{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(hot)}},
		{EquiCols: []int{0, 1}, EquiVals: []value.V{value.NewInt(hot), value.NewInt(3)}},
		{EquiCols: []int{1}, EquiVals: []value.V{value.NewInt(6)}},
		{},
	}
	agree := func(when string) {
		t.Helper()
		for _, lk := range lookups {
			want := canonical(duts[0].d.Candidates(lk), lk)
			for _, dut := range duts[1:] {
				if got := canonical(dut.d.Candidates(lk), lk); got != want {
					t.Fatalf("%s: %s.Candidates(%v) = %q, %s says %q", when, dut.name, lk, got, duts[0].name, want)
				}
			}
		}
		for _, r := range rows {
			want := duts[0].d.Contains(r)
			for _, dut := range duts[1:] {
				if got := dut.d.Contains(r); got != want {
					t.Fatalf("%s: %s.Contains(%s) = %v, want %v", when, dut.name, r, got, want)
				}
			}
		}
	}
	for i, r := range rows {
		for _, dut := range duts {
			dut.d.Insert(r, tuple.Timestamp(i+1))
		}
	}
	agree("built")
	for i, r := range rows {
		for _, dut := range duts {
			if e, ok := dut.d.Evict(); !ok || !e.Row.Equal(r) {
				t.Fatalf("%s: eviction %d removed %v (ok=%v), want %s", dut.name, i, e.Row, ok, r)
			}
		}
		agree(fmt.Sprintf("after evicting row %d", i))
	}
	for i, r := range rows {
		for _, dut := range duts {
			dut.d.Insert(r, tuple.Timestamp(100+i))
		}
	}
	agree("refilled")
	if got := len(duts[0].d.Candidates(lookups[0])); got != 3 {
		t.Fatalf("the refilled hot chain holds %d rows, want 3", got)
	}
}

// TestProbeCacheCollision pins the probeCache's hash-with-verify behavior:
// two lookups sharing a 64-bit cache key must not share candidate lists.
func TestProbeCacheCollision(t *testing.T) {
	d := NewListDict()
	d.Insert(tuple.Row{value.NewInt(1)}, 1)
	d.Insert(tuple.Row{value.NewInt(2)}, 2)

	lkA := Lookup{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(1)}}
	lkB := Lookup{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(2)}}
	rawKey, _ := lkA.cacheKey()
	key := value.MixUint64(rawKey, 0) // candidates() salts keys by shard; shard 0 here

	pc := &probeCache{}
	// Force a collision: seed the cache so lkB's entry sits under lkA's key
	// (same salt, different constraints — the verify step must reject it).
	pc.ents = []cachedCands{{salt: 0, cols: lkB.EquiCols, vals: lkB.EquiVals, es: []Entry{{Row: tuple.Row{value.NewInt(2)}, TS: 2}}}}
	pc.m = map[uint64][]int{key: {0}}
	es := pc.candidates(d, lkA, 0)
	// ListDict candidates are a full scan; the point is the cache must NOT
	// have returned lkB's single-entry list for lkA.
	if len(es) != 2 {
		t.Fatalf("colliding cache entry leaked across lookups: got %d candidates, want full scan of 2", len(es))
	}
	if len(pc.m[key]) != 2 {
		t.Fatalf("cache should hold both colliding entries, has %d", len(pc.m[key]))
	}
	// A repeated lkA probe must now hit its own verified entry.
	if es2 := pc.candidates(d, lkA, 0); len(es2) != 2 {
		t.Fatalf("verified cache hit returned %d candidates, want 2", len(es2))
	}
}
