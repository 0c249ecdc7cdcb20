package stem

// Property test: HashDict must agree with a trivially-correct list oracle on
// the candidate sets it can produce. A dictionary may return supersets (the
// SteM re-verifies every predicate), so equivalence is checked modulo superset
// filtering: each dictionary's candidates are filtered down by the lookup's
// own constraints and the filtered multisets must be identical.
//
// The masked variants shrink every hash to a few bits, forcing constant
// bucket collisions, so the hash-with-verify paths (index buckets, rowSet
// dedup, eviction bucket removal) are exercised under adversarial hashing —
// something real FNV-1a keys would essentially never trigger.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// collisionMask shrinks hashes to 2 bits: with a handful of distinct rows,
// every bucket holds several unrelated keys.
const collisionMask = 0x3

// dict is what the equivalence tests drive: the HashDict under test and the
// list oracle it is compared against.
type dict interface {
	Insert(row tuple.Row, ts tuple.Timestamp)
	Contains(row tuple.Row) bool
	Candidates(lk Lookup) []Entry
	Evict() (Entry, bool)
	Len() int
	MaxTS() tuple.Timestamp
}

// listDict stores rows in arrival order with no index. The duplicate set is
// keyed by row hash with verification; eviction advances a head cursor and
// periodically compacts the backing array so long-running windowed queries
// do not pin the memory of every row ever stored.
type listDict struct {
	entries []Entry
	head    int // entries[:head] are evicted, awaiting compaction
	rowSet  map[uint64][]tuple.Row
	mask    uint64
}

// newListDict returns an empty list dictionary.
func newListDict() *listDict {
	return &listDict{rowSet: make(map[uint64][]tuple.Row), mask: ^uint64(0)}
}

func (d *listDict) Insert(row tuple.Row, ts tuple.Timestamp) {
	d.entries = append(d.entries, Entry{Row: row, TS: ts})
	h := row.Hash64() & d.mask
	d.rowSet[h] = append(d.rowSet[h], row)
}

func (d *listDict) Contains(row tuple.Row) bool {
	for _, r := range d.rowSet[row.Hash64()&d.mask] {
		if r.Equal(row) {
			return true
		}
	}
	return false
}

// Candidates is always a full scan.
func (d *listDict) Candidates(Lookup) []Entry {
	return append([]Entry(nil), d.entries[d.head:]...)
}

// Evict releases the evicted prefix once it outgrows the live half, keeping
// eviction amortized O(1) without retaining the whole history in the slice's
// backing array.
func (d *listDict) Evict() (Entry, bool) {
	if d.head >= len(d.entries) {
		return Entry{}, false
	}
	e := d.entries[d.head]
	d.entries[d.head] = Entry{} // release the row for GC
	d.head++
	if d.head > 32 && d.head > len(d.entries)/2 {
		n := copy(d.entries, d.entries[d.head:])
		clear(d.entries[n:])
		d.entries = d.entries[:n]
		d.head = 0
	}
	h := e.Row.Hash64() & d.mask
	d.rowSet[h] = removeRow(d.rowSet[h], e.Row)
	if len(d.rowSet[h]) == 0 {
		delete(d.rowSet, h)
	}
	return e, true
}

// removeRow deletes one row equal to r from a bucket, preserving order.
func removeRow(rows []tuple.Row, r tuple.Row) []tuple.Row {
	for i, x := range rows {
		if x.Equal(r) {
			return append(rows[:i], rows[i+1:]...)
		}
	}
	return rows
}

func (d *listDict) Len() int { return len(d.entries) - d.head }

func (d *listDict) MaxTS() tuple.Timestamp {
	var max tuple.Timestamp
	for _, e := range d.entries[d.head:] {
		if e.TS > max {
			max = e.TS
		}
	}
	return max
}

type dictUnderTest struct {
	name string
	d    dict
	// fresh makes an empty replacement when the workload recycles its
	// dictionaries; nil for the HashDicts, which are recycled the way a
	// released SteM's is: cleared in place and retargeted.
	fresh func() dict
}

func newDictsUnderTest() []dictUnderTest {
	cols := []int{0, 1}
	masked := NewHashDict(cols)
	masked.mask = collisionMask
	listMasked := func() dict { d := newListDict(); d.mask = collisionMask; return d }
	return []dictUnderTest{
		{"HashDict", NewHashDict(cols), nil},
		{"HashDict/masked", masked, nil},
		{"listDict/masked", listMasked(), listMasked},
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
	switch rng.Intn(3) {
	case 0: // full scan (what a probe bound only by band predicates presents)
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
						dut.d.Insert(slices.Clone(row), ts)
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
