// dict.go defines the dictionary data structures a SteM encapsulates.
//
// Section 3.1 of the paper observes that the choice of dictionary is part of
// the join algorithm: hash indexes yield hash-join behaviour, sorted
// structures yield sort-merge behaviour, and a SteM "may use a linked list
// when it holds a small number of tuples, and switch to a hash-based
// implementation when the list size increases" — independently of other
// modules. Each implementation here captures one of those choices.
package stem

import (
	"sort"
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

// RangeCond is an inequality constraint on a stored column: a candidate row
// r qualifies when r[Col] Op Val holds. Range conditions arise from non-equi
// join predicates (band joins); dictionaries may use them to narrow the
// candidate set but are free to ignore them — the SteM re-verifies every
// predicate on concatenation.
type RangeCond struct {
	Col int
	Op  pred.Op
	Val value.V
}

// Lookup describes a probe into a dictionary: candidate entries must satisfy
// EquiCols[i] == EquiVals[i] for all i; Ranges may further narrow the set.
// A Lookup with no constraints requests a full scan.
type Lookup struct {
	EquiCols []int
	EquiVals []value.V
	Ranges   []RangeCond
}

// cacheKey hashes a pure-equality lookup into a 64-bit key, so batched
// probes sharing a key can reuse one candidate list; ok is false for lookups
// with range conditions, which are not worth keying. Hash collisions are
// resolved by the cache, which verifies the full column/value lists.
func (lk Lookup) cacheKey() (uint64, bool) {
	if len(lk.Ranges) > 0 {
		return 0, false
	}
	h := value.HashSeed
	for i, c := range lk.EquiCols {
		h = value.MixUint64(h, uint64(c))
		h = lk.EquiVals[i].HashInto(h)
	}
	return h, true
}

// equiEqual reports whether the lookup's equality constraints are exactly
// (cols, vals): the verification half of the cache's hash-with-verify keys.
func (lk Lookup) equiEqual(cols []int, vals []value.V) bool {
	if len(lk.EquiCols) != len(cols) {
		return false
	}
	for i, c := range lk.EquiCols {
		if c != cols[i] || !lk.EquiVals[i].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// Dict is the storage structure inside a SteM. Implementations need not be
// thread-safe; the SteM serializes access.
type Dict interface {
	// Insert stores a row with its build timestamp.
	Insert(row tuple.Row, ts tuple.Timestamp)
	// Contains reports whether an identical row is already stored, supporting
	// the set-semantics duplicate elimination of Section 3.2.
	Contains(row tuple.Row) bool
	// Candidates returns stored entries satisfying the lookup's equality
	// constraints. Implementations may return extra entries (the SteM
	// re-verifies every predicate); they must not miss any.
	Candidates(lk Lookup) []Entry
	// Evict removes and returns the entry with the smallest timestamp, for
	// windowed streaming queries; ok is false if empty.
	Evict() (Entry, bool)
	// Len returns the number of stored entries.
	Len() int
	// MaxTS returns the largest stored timestamp, or 0 if empty; used to
	// maintain LastMatchTimeStamp in the relaxed BuildFirst mode (§3.5).
	MaxTS() tuple.Timestamp
}

// ---------------------------------------------------------------------------
// HashDict: one main-memory hash index per join column (Section 2.1.4: "a
// SteM on a table T has one main-memory index on each column of T involved
// in a join predicate; these are all secondary indexes").

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

// Insert implements Dict.
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

// Contains implements Dict.
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

// Candidates implements Dict. If any lookup column has a hash index, the
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

// Evict implements Dict: removes the oldest live entry, in amortized O(1)
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

// Len implements Dict.
func (d *HashDict) Len() int { return d.live }

// MaxTS implements Dict, in O(1).
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

// ---------------------------------------------------------------------------
// ListDict: an unindexed append-only list. Cheap to build, linear to probe.

// ListDict stores rows in arrival order with no index. The duplicate set is
// keyed by row hash with verification; eviction advances a head cursor and
// periodically compacts the backing array so long-running windowed queries
// do not pin the memory of every row ever stored.
type ListDict struct {
	entries []Entry
	head    int // entries[:head] are evicted, awaiting compaction
	rowSet  map[uint64][]tuple.Row
	mask    uint64
}

// NewListDict returns an empty list dictionary.
func NewListDict() *ListDict {
	return &ListDict{rowSet: make(map[uint64][]tuple.Row), mask: ^uint64(0)}
}

// Insert implements Dict.
func (d *ListDict) Insert(row tuple.Row, ts tuple.Timestamp) {
	d.entries = append(d.entries, Entry{Row: row, TS: ts})
	h := row.Hash64() & d.mask
	d.rowSet[h] = append(d.rowSet[h], row)
}

// Contains implements Dict.
func (d *ListDict) Contains(row tuple.Row) bool {
	for _, r := range d.rowSet[row.Hash64()&d.mask] {
		if r.Equal(row) {
			return true
		}
	}
	return false
}

// Candidates implements Dict: always a full scan.
func (d *ListDict) Candidates(Lookup) []Entry {
	return append([]Entry(nil), d.entries[d.head:]...)
}

// Evict implements Dict. The evicted prefix is released once it outgrows the
// live half, keeping eviction amortized O(1) without retaining the whole
// history in the slice's backing array.
func (d *ListDict) Evict() (Entry, bool) {
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

// Len implements Dict.
func (d *ListDict) Len() int { return len(d.entries) - d.head }

// MaxTS implements Dict.
func (d *ListDict) MaxTS() tuple.Timestamp {
	var max tuple.Timestamp
	for _, e := range d.entries[d.head:] {
		if e.TS > max {
			max = e.TS
		}
	}
	return max
}

// ---------------------------------------------------------------------------
// AdaptiveDict: the §3.1 relaxation made concrete — a linked list while
// small, migrating to hash indexes once it crosses a threshold, with no other
// module aware of the switch.

// AdaptiveDict starts as a ListDict and becomes a HashDict after Threshold
// inserts.
type AdaptiveDict struct {
	cols      []int
	threshold int
	inner     Dict
	switched  bool
}

// NewAdaptiveDict returns an adaptive dictionary that switches to hash
// indexes on cols after threshold entries.
func NewAdaptiveDict(cols []int, threshold int) *AdaptiveDict {
	return &AdaptiveDict{cols: cols, threshold: threshold, inner: NewListDict()}
}

// Switched reports whether the migration to hash indexes has happened.
func (d *AdaptiveDict) Switched() bool { return d.switched }

// Insert implements Dict, migrating when the threshold is crossed.
func (d *AdaptiveDict) Insert(row tuple.Row, ts tuple.Timestamp) {
	d.inner.Insert(row, ts)
	if !d.switched && d.inner.Len() >= d.threshold {
		h := NewHashDict(d.cols)
		for _, e := range d.inner.Candidates(Lookup{}) {
			h.Insert(e.Row, e.TS)
		}
		d.inner = h
		d.switched = true
	}
}

// Contains implements Dict.
func (d *AdaptiveDict) Contains(row tuple.Row) bool { return d.inner.Contains(row) }

// Candidates implements Dict.
func (d *AdaptiveDict) Candidates(lk Lookup) []Entry { return d.inner.Candidates(lk) }

// Evict implements Dict.
func (d *AdaptiveDict) Evict() (Entry, bool) { return d.inner.Evict() }

// Len implements Dict.
func (d *AdaptiveDict) Len() int { return d.inner.Len() }

// MaxTS implements Dict.
func (d *AdaptiveDict) MaxTS() tuple.Timestamp { return d.inner.MaxTS() }

// ---------------------------------------------------------------------------
// SortedDict: sorted runs on one column, the tournament-tree analogue of
// §3.1 that makes the SteM routing simulate a sort-merge join. Runs of
// RunSize entries are kept sorted on the sort column; probes binary-search
// every run.

// SortedDict stores rows in sorted runs on a sort column.
type SortedDict struct {
	sortCol int
	runSize int
	runs    [][]Entry
	cur     []Entry
	rowSet  map[uint64][]tuple.Row
	mask    uint64
}

// NewSortedDict returns a sorted-run dictionary on sortCol with the given
// run size (entries per run before a new run is started).
func NewSortedDict(sortCol, runSize int) *SortedDict {
	if runSize <= 0 {
		runSize = 64
	}
	return &SortedDict{sortCol: sortCol, runSize: runSize, rowSet: make(map[uint64][]tuple.Row), mask: ^uint64(0)}
}

// Runs returns the number of sealed sorted runs (for tests and benchmarks).
func (d *SortedDict) Runs() int { return len(d.runs) }

// Insert implements Dict.
func (d *SortedDict) Insert(row tuple.Row, ts tuple.Timestamp) {
	d.cur = append(d.cur, Entry{Row: row, TS: ts})
	h := row.Hash64() & d.mask
	d.rowSet[h] = append(d.rowSet[h], row)
	if len(d.cur) >= d.runSize {
		d.sealRun()
	}
}

func (d *SortedDict) sealRun() {
	if len(d.cur) == 0 {
		return
	}
	run := d.cur
	d.cur = nil
	sort.Slice(run, func(i, j int) bool {
		return run[i].Row[d.sortCol].Compare(run[j].Row[d.sortCol]) < 0
	})
	d.runs = append(d.runs, run)
}

// Contains implements Dict.
func (d *SortedDict) Contains(row tuple.Row) bool {
	for _, r := range d.rowSet[row.Hash64()&d.mask] {
		if r.Equal(row) {
			return true
		}
	}
	return false
}

// Candidates implements Dict: if the lookup binds the sort column — by
// equality or by a range condition — each sealed run is binary-searched; the
// unsealed tail and unmatched columns fall back to scans.
func (d *SortedDict) Candidates(lk Lookup) []Entry {
	for i, c := range lk.EquiCols {
		if c == d.sortCol {
			return d.equalOnSort(lk.EquiVals[i])
		}
	}
	for _, rc := range lk.Ranges {
		if rc.Col == d.sortCol {
			return d.rangeOnSort(rc)
		}
	}
	var out []Entry
	for _, run := range d.runs {
		out = append(out, run...)
	}
	return append(out, d.cur...)
}

func (d *SortedDict) equalOnSort(v value.V) []Entry {
	var out []Entry
	for _, run := range d.runs {
		lo := sort.Search(len(run), func(i int) bool {
			return run[i].Row[d.sortCol].Compare(v) >= 0
		})
		for i := lo; i < len(run) && run[i].Row[d.sortCol].Equal(v); i++ {
			out = append(out, run[i])
		}
	}
	for _, e := range d.cur {
		if e.Row[d.sortCol].Equal(v) {
			out = append(out, e)
		}
	}
	return out
}

// rangeOnSort binary-searches each run for the half-open interval the range
// condition describes. Ne conditions cannot narrow a sorted run usefully, so
// they fall back to a full scan of each run.
func (d *SortedDict) rangeOnSort(rc RangeCond) []Entry {
	var out []Entry
	sat := func(e Entry) bool {
		if e.Row[rc.Col].IsEOT() {
			return false
		}
		return evalRange(e.Row[rc.Col], rc)
	}
	for _, run := range d.runs {
		switch rc.Op {
		case pred.Lt, pred.Le:
			hi := sort.Search(len(run), func(i int) bool {
				return !evalRange(run[i].Row[d.sortCol], rc)
			})
			out = append(out, run[:hi]...)
		case pred.Gt, pred.Ge:
			lo := sort.Search(len(run), func(i int) bool {
				return evalRange(run[i].Row[d.sortCol], rc)
			})
			out = append(out, run[lo:]...)
		default:
			for _, e := range run {
				if sat(e) {
					out = append(out, e)
				}
			}
		}
	}
	for _, e := range d.cur {
		if sat(e) {
			out = append(out, e)
		}
	}
	return out
}

// evalRange reports whether v Op rc.Val holds.
func evalRange(v value.V, rc RangeCond) bool {
	cmp := v.Compare(rc.Val)
	switch rc.Op {
	case pred.Lt:
		return cmp < 0
	case pred.Le:
		return cmp <= 0
	case pred.Gt:
		return cmp > 0
	case pred.Ge:
		return cmp >= 0
	case pred.Ne:
		return cmp != 0
	default:
		return true
	}
}

// Evict implements Dict: removes the entry with the smallest timestamp
// across the sealed runs and the unsealed tail.
func (d *SortedDict) Evict() (Entry, bool) {
	bestRun, bestIdx := -1, -1
	var bestTS tuple.Timestamp
	for ri, run := range d.runs {
		for i, e := range run {
			if bestIdx < 0 || e.TS < bestTS {
				bestRun, bestIdx, bestTS = ri, i, e.TS
			}
		}
	}
	for i, e := range d.cur {
		if bestIdx < 0 || e.TS < bestTS {
			bestRun, bestIdx, bestTS = -1, i, e.TS
		}
	}
	if bestIdx < 0 {
		return Entry{}, false
	}
	var e Entry
	if bestRun >= 0 {
		run := d.runs[bestRun]
		e = run[bestIdx]
		d.runs[bestRun] = append(run[:bestIdx:bestIdx], run[bestIdx+1:]...)
	} else {
		e = d.cur[bestIdx]
		d.cur = append(d.cur[:bestIdx:bestIdx], d.cur[bestIdx+1:]...)
	}
	h := e.Row.Hash64() & d.mask
	d.rowSet[h] = removeRow(d.rowSet[h], e.Row)
	if len(d.rowSet[h]) == 0 {
		delete(d.rowSet, h)
	}
	return e, true
}

// Len implements Dict.
func (d *SortedDict) Len() int {
	n := len(d.cur)
	for _, run := range d.runs {
		n += len(run)
	}
	return n
}

// MaxTS implements Dict.
func (d *SortedDict) MaxTS() tuple.Timestamp {
	var max tuple.Timestamp
	for _, run := range d.runs {
		for _, e := range run {
			if e.TS > max {
				max = e.TS
			}
		}
	}
	for _, e := range d.cur {
		if e.TS > max {
			max = e.TS
		}
	}
	return max
}

// lookupInto derives the lookup for a probe tuple against table column
// constraints: equality columns from equi-join predicates, range conditions
// from the comparison joins (band joins). BindSide orients the op as
// "fromValue op t.column"; the stored-side condition is the flip. The
// lookup is built into lk, reusing its slices, so per-probe lookup
// construction allocates nothing in steady state.
func lookupInto(lk *Lookup, t *tuple.Tuple, table int, preds []pred.P) {
	lk.EquiCols = lk.EquiCols[:0]
	lk.EquiVals = lk.EquiVals[:0]
	lk.Ranges = lk.Ranges[:0]
	for _, p := range preds {
		tCol, from, op, ok := p.BindSide(t.Span, table)
		if !ok {
			continue
		}
		v := t.Value(from.Table, from.Col)
		if op == pred.Eq {
			lk.EquiCols = append(lk.EquiCols, tCol)
			lk.EquiVals = append(lk.EquiVals, v)
			continue
		}
		lk.Ranges = append(lk.Ranges, RangeCond{Col: tCol, Op: op.Flip(), Val: v})
	}
}
