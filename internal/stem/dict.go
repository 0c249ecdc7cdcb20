// dict.go defines the dictionary a SteM encapsulates: "a SteM on a table T
// has one main-memory index on each column of T involved in a join predicate;
// these are all secondary indexes" (Section 2.1.4).
package stem

import (
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Entry is a stored singleton row with its build timestamp.
type Entry struct {
	Row tuple.Row
	TS  tuple.Timestamp
}

// Lookup describes a probe into a dictionary: candidate entries must satisfy
// EquiCols[i] == EquiVals[i] for all i. A Lookup with no constraints — what a
// probe bound only by non-equi (band) join predicates presents — requests a
// full scan; the SteM re-verifies every predicate on concatenation.
type Lookup struct {
	EquiCols []int
	EquiVals []value.V
}

// chain is one hash bucket of one index: the entry positions stored under a
// hash, threaded through HashDict.next in insertion order. n is kept so the
// narrowest-index heuristic reads a bucket's length in O(1); it also ends the
// walk, so the zero chain is the empty bucket and next needs no sentinel.
type chain struct {
	head, tail, n int32
}

// HashDict stores rows with hash indexes on the given columns. Every index —
// the whole-row dedup set (slot 0) and one per join column (slot 1+i) — maps
// a 64-bit value/row hash to a chain of entry positions, and the links of all
// chains live in one array parallel to entries. Storing a row appends to three
// slices and rewrites one map cell per index: there is no per-key heap object
// and nothing to re-grow as a key repeats. Keys are hashes rather than encoded
// strings, so builds and probes allocate no key material; hash collisions are
// benign because every bucket consultation verifies candidates with Equal
// (hash-with-verify: a chain may hold positions for distinct values that
// collide, and the walk filters them out). Positions are int32, so a
// dictionary holds at most 2^31 rows.
type HashDict struct {
	cols []int
	// buckets[slot] maps a hash to its chain. Slots past len(cols) are empty
	// maps left over from a wider use of this storage (see retarget).
	buckets []map[uint64]chain
	// next holds the links, slots() per entry: the successor of position p in
	// slot's chain is next[p*slots()+slot].
	next    []int32
	entries []Entry
	evicted []bool // parallel to entries
	live    int
	// evictHead is the amortized-O(1) eviction cursor: entries before it are
	// all evicted, so Evict resumes scanning where it last stopped instead of
	// rescanning from the start.
	evictHead int
	// maxTS caches the largest live timestamp. Inserts maintain it in O(1);
	// evicting the maximal entry (only possible under out-of-timestamp-order
	// inserts — engine timestamps are monotonic) triggers a rescan.
	maxTS tuple.Timestamp
	// mask is ANDed onto every hash; all ones normally, narrowed by tests to
	// force bucket collisions and exercise the verify paths.
	mask uint64
}

// rowSlot is the whole-row dedup index; the index on cols[i] is slot 1+i.
const rowSlot = 0

// NewHashDict returns a hash dictionary with secondary indexes on cols (the
// table's join columns).
func NewHashDict(cols []int) *HashDict {
	d := &HashDict{}
	d.retarget(cols)
	return d
}

// retarget points an empty dictionary at a set of indexed columns, keeping
// whatever storage it has. A dictionary is generic but for cols, which is
// what lets one released by any query serve any other (see dictPool).
func (d *HashDict) retarget(cols []int) {
	d.cols = append(d.cols[:0], cols...)
	for len(d.buckets) < d.slots() {
		d.buckets = append(d.buckets, make(map[uint64]chain))
	}
	d.mask = ^uint64(0)
}

// slots is the number of indexes in use, and the stride of next.
func (d *HashDict) slots() int { return len(d.cols) + 1 }

// Clear empties the dictionary in place, keeping the backing arrays and map
// tables so the next build goes into warm storage instead of reallocating it.
// Every stored row reference is zeroed: a cleared dictionary pins no table.
func (d *HashDict) Clear() {
	clear(d.entries)
	d.entries = d.entries[:0]
	d.evicted = d.evicted[:0]
	d.next = d.next[:0]
	for _, m := range d.buckets[:d.slots()] {
		clear(m)
	}
	d.live = 0
	d.evictHead = 0
	d.maxTS = 0
}

// Insert stores a row with its build timestamp.
func (d *HashDict) Insert(row tuple.Row, ts tuple.Timestamp) {
	d.insertHashed(row, ts, row.Hash64())
}

// insertHashed is Insert with the whole-row hash already computed (columnar
// builds hash the vector row once for dedup and reuse it here). It only ever
// appends — the entry, its flag and its links at the end of three slices, its
// position at the tail of one chain per index — so it allocates nothing once
// the storage is warm.
func (d *HashDict) insertHashed(row tuple.Row, ts tuple.Timestamp, rowHash uint64) {
	pos := int32(len(d.entries))
	d.entries = append(d.entries, Entry{Row: row, TS: ts})
	d.evicted = append(d.evicted, false)
	for range d.slots() {
		d.next = append(d.next, 0)
	}
	d.live++
	d.linkRow(row, rowHash, pos)
	if ts > d.maxTS {
		d.maxTS = ts
	}
}

// linkRow threads the row stored at pos onto its chain in every index.
func (d *HashDict) linkRow(row tuple.Row, rowHash uint64, pos int32) {
	d.link(rowSlot, rowHash, pos)
	for i, c := range d.cols {
		d.link(1+i, row[c].Hash64(), pos)
	}
}

// link appends position pos to the chain under hash h in slot's index.
func (d *HashDict) link(slot int, h uint64, pos int32) {
	m := d.buckets[slot]
	c := m[h&d.mask]
	if c.n == 0 {
		c.head = pos
	} else {
		d.next[int(c.tail)*d.slots()+slot] = pos
	}
	c.tail = pos
	c.n++
	m[h&d.mask] = c
}

// cursor walks one chain in insertion order; see HashDict.bucket.
type cursor struct {
	d    *HashDict
	slot int
	pos  int32
	left int32
}

// Len returns the number of positions still ahead of the cursor, evicted ones
// included: before the first Next, the bucket's length, in O(1).
func (c *cursor) Len() int { return int(c.left) }

// Next yields the chain's next live entry; ok is false at the end.
func (c *cursor) Next() (e *Entry, ok bool) {
	d := c.d
	for c.left > 0 {
		p := int(c.pos)
		c.left--
		c.pos = d.next[p*d.slots()+c.slot]
		if !d.evicted[p] {
			return &d.entries[p], true
		}
	}
	return nil, false
}

func (d *HashDict) chainOf(slot int, h uint64) cursor {
	c := d.buckets[slot][h&d.mask]
	return cursor{d: d, slot: slot, pos: c.head, left: c.n}
}

// bucket returns a cursor over the entries stored under value hash h in the
// index on d.cols[di]; columnar probes walk it directly instead of allocating
// a candidate []Entry per probe. Candidates must be verified with Equal.
func (d *HashDict) bucket(di int, h uint64) cursor { return d.chainOf(1+di, h) }

// Contains reports whether an identical row is already stored, supporting
// the set-semantics duplicate elimination of Section 3.2.
func (d *HashDict) Contains(row tuple.Row) bool {
	c := d.chainOf(rowSlot, row.Hash64())
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		if e.Row.Equal(row) {
			return true
		}
	}
	return false
}

// containsVec is Contains for physical row i of a columnar table, given the
// precomputed whole-row hash — the build-dedup check without materializing
// the row first.
func (d *HashDict) containsVec(h uint64, tab *flow.ColTable, i int) bool {
	c := d.chainOf(rowSlot, h)
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		if len(e.Row) != len(tab.Cols) {
			continue
		}
		eq := true
		for col := range e.Row {
			if !e.Row[col].Equal(tab.Cols[col].ValueAt(i)) {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

// colIndex returns the position of col within d's indexed columns, or -1.
func (d *HashDict) colIndex(col int) int {
	for i, c := range d.cols {
		if c == col {
			return i
		}
	}
	return -1
}

// Candidates returns stored entries satisfying the lookup's equality
// constraints. It may return extra entries (the SteM re-verifies every
// predicate); it never misses one. If any lookup column has a hash index, the
// index whose bucket is narrowest is consulted (bucket lengths may overcount
// under collisions and evictions; the heuristic only picks which index to
// walk); otherwise all live entries are returned for the caller to filter.
func (d *HashDict) Candidates(lk Lookup) []Entry {
	bestLi := -1
	var best cursor
	for li, c := range lk.EquiCols {
		if di := d.colIndex(c); di >= 0 {
			if b := d.bucket(di, lk.EquiVals[li].Hash64()); bestLi < 0 || b.Len() < best.Len() {
				bestLi, best = li, b
			}
		}
	}
	if bestLi < 0 {
		return d.all()
	}
	col, v := lk.EquiCols[bestLi], lk.EquiVals[bestLi]
	out := make([]Entry, 0, best.Len())
	for e, ok := best.Next(); ok; e, ok = best.Next() {
		if e.Row[col].Equal(v) {
			out = append(out, *e)
		}
	}
	return out
}

func (d *HashDict) all() []Entry {
	out := make([]Entry, 0, d.live)
	for p, e := range d.entries {
		if !d.evicted[p] {
			out = append(out, e)
		}
	}
	return out
}

// Evict removes and returns the oldest live entry, for windowed streaming
// queries (ok is false if the dictionary is empty), in amortized O(1)
// via the evictHead cursor. The slot is only flagged — every chain keeps the
// dead position and walks skip it — until dead slots outnumber live ones,
// when compact drops them all; a windowed dictionary therefore stays O(window)
// in both memory and chain length however many rows pass through it.
func (d *HashDict) Evict() (Entry, bool) {
	for ; d.evictHead < len(d.entries); d.evictHead++ {
		p := d.evictHead
		if d.evicted[p] {
			continue
		}
		e := d.entries[p]
		d.evicted[p] = true
		d.entries[p].Row = nil // release the row for GC; walks skip evicted slots
		d.live--
		d.evictHead++
		if dead := len(d.entries) - d.live; dead > compactMinDead && dead > d.live {
			d.compact()
		}
		if e.TS == d.maxTS {
			d.rescanMaxTS()
		}
		return e, true
	}
	return Entry{}, false
}

// compactMinDead keeps small dictionaries from compacting on every other
// eviction.
const compactMinDead = 32

// compact slides the live entries down over the evicted ones and rebuilds
// every chain from them, in place. Insertion order — which is iteration
// order — is preserved. O(live), paid at most once per live evictions.
func (d *HashDict) compact() {
	n := 0
	for p, e := range d.entries {
		if !d.evicted[p] {
			d.entries[n] = e
			n++
		}
	}
	clear(d.entries[n:])
	d.entries = d.entries[:n]
	d.evicted = d.evicted[:n]
	clear(d.evicted)
	d.next = d.next[:n*d.slots()]
	for _, m := range d.buckets[:d.slots()] {
		clear(m)
	}
	d.evictHead = 0
	for p, e := range d.entries {
		d.linkRow(e.Row, e.Row.Hash64(), int32(p))
	}
}

func (d *HashDict) rescanMaxTS() {
	d.maxTS = 0
	for p, e := range d.entries {
		if !d.evicted[p] && e.TS > d.maxTS {
			d.maxTS = e.TS
		}
	}
}

// Len returns the number of stored entries.
func (d *HashDict) Len() int { return d.live }

// MaxTS returns the largest stored timestamp, or 0 if empty, in O(1); used to
// maintain LastMatchTimeStamp in the relaxed BuildFirst mode (§3.5).
func (d *HashDict) MaxTS() tuple.Timestamp {
	if d.live == 0 {
		return 0
	}
	return d.maxTS
}

// dictPool recycles cleared HashDicts across every query of the process. What
// a dictionary's storage is sized by — the rows of the tables being joined —
// belongs to the data, not to a plan, so a dictionary one query releases is
// the next query's warm storage whatever that query is. Dictionaries are
// cleared when they go in, not when they come out: the pool never pins a
// table's rows, and whatever a GC leaves in it is all a query needs to build
// without allocating.
var (
	dictPool     sync.Pool // of *HashDict, cleared
	dictRecycled atomic.Uint64
	dictNew      atomic.Uint64
)

// acquireDict returns an empty dictionary indexed on cols, recycled if the
// pool has one.
func acquireDict(cols []int) *HashDict {
	if d, _ := dictPool.Get().(*HashDict); d != nil {
		dictRecycled.Add(1)
		d.retarget(cols)
		return d
	}
	dictNew.Add(1)
	return NewHashDict(cols)
}

// releaseDict clears d and hands its storage to the pool. The caller must
// hold the only reference. A big dictionary that a small build happened to
// draw is left to the collector instead: clearing a map costs its capacity,
// not its contents (0.6 ms for one that once held 64k rows, 20 ms at 1M), and
// in the pool it would charge that to one small query after another.
func releaseDict(d *HashDict) {
	if cap(d.entries) > dictKeepRows && len(d.entries) < cap(d.entries)/16 {
		return
	}
	d.Clear()
	dictPool.Put(d)
}

// dictKeepRows is the capacity up to which a dictionary is pooled whatever it
// last held.
const dictKeepRows = 1 << 16

// DictAcquires reports how many private SteM dictionaries this process has
// taken from recycled storage and how many it had to allocate new.
func DictAcquires() (recycled, fresh uint64) {
	return dictRecycled.Load(), dictNew.Load()
}

// lookupInto derives the lookup for a probe tuple against table column
// constraints: the equality columns of the equi-join predicates it binds.
// Comparison (band) joins constrain no lookup; they are verified on
// concatenation. The lookup is built into lk, reusing its slices, so
// per-probe lookup construction allocates nothing in steady state.
func lookupInto(lk *Lookup, t *tuple.Tuple, table int, preds []pred.P) {
	lk.EquiCols = lk.EquiCols[:0]
	lk.EquiVals = lk.EquiVals[:0]
	for _, p := range preds {
		if tCol, from, op, ok := p.BindSide(t.Span, table); ok && op == pred.Eq {
			lk.EquiCols = append(lk.EquiCols, tCol)
			lk.EquiVals = append(lk.EquiVals, t.Value(from.Table, from.Col))
		}
	}
}
