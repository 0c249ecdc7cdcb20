// col.go defines the columnar batch representation of the dataflow hot path.
//
// A ColBatch carries the same information as a Batch of row tuples, laid out
// as typed per-column vectors instead of per-tuple []value.V rows: int64
// columns as []int64, string columns dictionary-encoded as codes into a
// per-vector dictionary, and null / EOT markers as bitmaps. A selection
// vector lets filters and hash-with-verify misses drop rows without copying
// any column data, and the routing state the eddy consults (span, done bits,
// built bits, prior-prober lineage, visit counts) is a single shared header —
// every row of a ColBatch has routed together its whole life, so the state is
// uniform by construction and the eddy routes the batch with one decision.
//
// ColBatches are an engine optimization, not a semantic change: Materialize
// converts any ColBatch back into row tuples (the inverse of the Lift shim's
// direction), and engines that do not know about columns — the deterministic
// simulator, the batch-size-1 configuration — never see one. Tuples with
// non-uniform identity (seeds, EOT markers) always travel as rows.
package flow

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/tuple"
	"repro/internal/value"
)

// KindBoxed marks a vector that fell back to boxed value.V storage because
// its rows mixed scalar kinds beyond what null/EOT bitmaps express. It is
// outside the value.Kind enum on purpose.
const KindBoxed value.Kind = 0xff

// ChunkRows bounds a batch loaded from a row slice (a scan chunk, a delta
// round's new rows): downstream modules hold locks for a whole batch.
const ChunkRows = 1024

// Vec is one typed column vector. The dominant Kind selects the backing
// array (Ints for value.Int, Codes+Dict for value.Str); rows that are Null or
// EOT markers are flagged in the bitmaps and hold a zero filler in the typed
// array. A vector whose rows mix incompatible kinds degrades to KindBoxed
// with per-row value.V storage, so correctness never depends on schema
// discipline.
type Vec struct {
	Kind value.Kind
	Ints []int64
	// Codes index Dict; parallel to the row count when Kind == value.Str.
	Codes []int32
	Dict  *StrDict
	// Vals is the boxed fallback storage (Kind == KindBoxed).
	Vals []value.V
	// Null and EOT flag rows whose logical value is the null value or the
	// End-Of-Transmission marker; both bitmaps grow lazily to the highest set
	// bit, so all-absent columns cost nothing.
	Null []uint64
	EOT  []uint64

	n int
}

// StrDict is a per-vector string dictionary: codes are dense indexes into
// strs, and the FNV-1a value hash of each entry is computed once, so hashing
// a dictionary-encoded key column is an array lookup per row.
type StrDict struct {
	strs   []string
	idx    map[string]int32
	hashes []uint64
}

func (d *StrDict) code(s string) int32 {
	if d.idx == nil {
		d.idx = make(map[string]int32)
	}
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.idx[s] = c
	d.hashes = append(d.hashes, value.NewStr(s).Hash64())
	return c
}

// Len returns the number of distinct strings.
func (d *StrDict) Len() int { return len(d.strs) }

// At returns the string for a code.
func (d *StrDict) At(c int32) string { return d.strs[c] }

func (d *StrDict) reset() {
	d.strs = d.strs[:0]
	d.hashes = d.hashes[:0]
	clear(d.idx)
}

// bitSet sets bit i, growing the word slice with zeroed words as needed.
func bitSet(words *[]uint64, i int) {
	w := i >> 6
	for len(*words) <= w {
		*words = append(*words, 0)
	}
	(*words)[w] |= 1 << uint(i&63)
}

// bitGet reports bit i; out-of-range bits are unset (lazily grown bitmaps).
func bitGet(words []uint64, i int) bool {
	w := i >> 6
	return w < len(words) && words[w]&(1<<uint(i&63)) != 0
}

// Len returns the vector's physical row count.
func (v *Vec) Len() int { return v.n }

func (v *Vec) reset() {
	v.Kind = value.Null
	v.Ints = v.Ints[:0]
	v.Codes = v.Codes[:0]
	v.Vals = v.Vals[:0]
	v.Null = v.Null[:0]
	v.EOT = v.EOT[:0]
	v.n = 0
	if v.Dict != nil {
		v.Dict.reset()
	}
}

// filler appends the zero slot for a row whose value lives in a bitmap (or
// in boxed storage), keeping the typed arrays parallel to the row count.
func (v *Vec) filler() {
	switch v.Kind {
	case value.Int:
		v.Ints = append(v.Ints, 0)
	case value.Str:
		v.Codes = append(v.Codes, 0)
	}
}

// box converts the vector to boxed storage, preserving every row.
func (v *Vec) box() {
	vals := make([]value.V, v.n)
	for i := 0; i < v.n; i++ {
		vals[i] = v.ValueAt(i)
	}
	v.Vals = vals
	v.Kind = KindBoxed
	v.Ints = v.Ints[:0]
	v.Codes = v.Codes[:0]
	v.Null = v.Null[:0]
	v.EOT = v.EOT[:0]
}

// AppendV appends one value, adapting the vector's representation: the first
// scalar kind claims the typed array, nulls and EOT markers go to bitmaps,
// and any later kind conflict degrades the vector to boxed storage.
func (v *Vec) AppendV(x value.V) {
	if v.Kind == KindBoxed {
		v.Vals = append(v.Vals, x)
		v.n++
		return
	}
	switch x.K {
	case value.Null:
		bitSet(&v.Null, v.n)
		v.filler()
	case value.EOTMark:
		bitSet(&v.EOT, v.n)
		v.filler()
	case value.Int:
		if v.Kind == value.Null {
			v.Kind = value.Int
			for i := 0; i < v.n; i++ {
				v.Ints = append(v.Ints, 0)
			}
		}
		if v.Kind != value.Int {
			v.box()
			v.Vals = append(v.Vals, x)
			v.n++
			return
		}
		v.Ints = append(v.Ints, x.I)
	case value.Str:
		if v.Kind == value.Null {
			v.Kind = value.Str
			if v.Dict == nil {
				v.Dict = &StrDict{}
			}
			for i := 0; i < v.n; i++ {
				v.Codes = append(v.Codes, 0)
			}
		}
		if v.Kind != value.Str {
			v.box()
			v.Vals = append(v.Vals, x)
			v.n++
			return
		}
		v.Codes = append(v.Codes, v.Dict.code(x.S))
	}
	v.n++
}

// ValueAt returns row i as a value.V. It allocates nothing.
func (v *Vec) ValueAt(i int) value.V {
	if v.Kind == KindBoxed {
		return v.Vals[i]
	}
	if bitGet(v.EOT, i) {
		return value.V{K: value.EOTMark}
	}
	if bitGet(v.Null, i) {
		return value.V{}
	}
	switch v.Kind {
	case value.Int:
		return value.V{K: value.Int, I: v.Ints[i]}
	case value.Str:
		return value.V{K: value.Str, S: v.Dict.strs[v.Codes[i]]}
	default:
		return value.V{}
	}
}

// Hash64At returns the FNV-1a value hash of row i, identical to
// ValueAt(i).Hash64() — dictionary-encoded strings answer from the
// precomputed per-code table instead of rehashing bytes.
func (v *Vec) Hash64At(i int) uint64 {
	if v.Kind == value.Str && !bitGet(v.Null, i) && !bitGet(v.EOT, i) {
		return v.Dict.hashes[v.Codes[i]]
	}
	return v.ValueAt(i).Hash64()
}

// HashValInto folds row i's value into FNV-1a state h, identical to
// ValueAt(i).HashInto(h); row-hash chains (SteM build dedup) use it to hash
// a vector row without boxing the values.
func (v *Vec) HashValInto(h uint64, i int) uint64 {
	return v.ValueAt(i).HashInto(h)
}

// ColTable holds one spanned table's columns plus the per-row build
// timestamps of that component. TS may be shorter than the row count (or
// empty): rows past its end are unbuilt, i.e. timestamp InfTS.
//
// Src, when non-nil, is the rows the columns were transposed from, parallel
// to the physical rows: Src[i][c] is Cols[c].ValueAt(i). A consumer that
// needs a row back as a []value.V (a SteM build) keeps Src[i] instead of
// transposing a copy. LoadRows sets it, for a caller who vouches the rows are
// immutable; Reset and AppendRowFrom drop it, so it never outlives the
// parallelism.
type ColTable struct {
	Cols []Vec
	TS   []tuple.Timestamp
	Src  []tuple.Row
}

// ColBatch is a columnar batch: n physical rows over the tables of Span,
// an optional selection vector restricting which rows are live, and one
// shared routing-state header (see the package comment for why it can be
// shared). The zero ColBatch is empty.
type ColBatch struct {
	// NTables is the query's table count (the length of Tabs).
	NTables int
	Span    tuple.TableSet
	Done    tuple.PredSet
	Built   tuple.TableSet

	PriorProber bool
	ProbeTable  int
	AMProbed    bool
	// HasMatches is the batch-uniform LastProbeMatches signal policies read;
	// SteMs split bounced batches so it stays uniform.
	HasMatches bool
	// LastMatchTS is the batch-uniform repeat-probe guard (§3.5); a SteM
	// bounce assigns one value to the whole batch, the dictionary's
	// high-water mark, exactly as the row path assigns it to each probe.
	LastMatchTS tuple.Timestamp
	// Visits is the shared BoundedRepetition counter vector; materialized
	// rows receive private clones.
	Visits []uint16

	n   int
	Sel []int32
	// sel retains the selection vector's capacity across Reset so pooled
	// batches refilter without reallocating.
	sel  []int32
	Tabs []ColTable
}

// shape sizes Tabs for nTables, reusing capacity.
func (cb *ColBatch) shape(nTables int) {
	cb.NTables = nTables
	if cap(cb.Tabs) < nTables {
		cb.Tabs = make([]ColTable, nTables)
	} else {
		cb.Tabs = cb.Tabs[:nTables]
	}
}

// Reset empties the batch for reuse, retaining allocated capacity.
func (cb *ColBatch) Reset() {
	for t := range cb.Tabs {
		tab := &cb.Tabs[t]
		for c := range tab.Cols {
			tab.Cols[c].reset()
		}
		tab.Cols = tab.Cols[:0]
		tab.TS = tab.TS[:0]
		tab.Src = nil
	}
	cb.Tabs = cb.Tabs[:0]
	cb.NTables = 0
	cb.Span = 0
	cb.Done = 0
	cb.Built = 0
	cb.PriorProber = false
	cb.ProbeTable = 0
	cb.AMProbed = false
	cb.HasMatches = false
	cb.LastMatchTS = 0
	cb.Visits = cb.Visits[:0]
	cb.n = 0
	cb.sel = cb.Sel[:0]
	cb.Sel = nil
}

// N returns the physical row count.
func (cb *ColBatch) N() int { return cb.n }

// SetRowCount declares the physical row count after columns were filled by
// direct vector appends (which do not touch the batch-level counter).
func (cb *ColBatch) SetRowCount(n int) { cb.n = n }

// Rows returns the live row count (the selection's length, or every
// physical row when no selection vector is installed).
func (cb *ColBatch) Rows() int {
	if cb.Sel != nil {
		return len(cb.Sel)
	}
	return cb.n
}

// RowAt maps live position k to its physical row index.
func (cb *ColBatch) RowAt(k int) int {
	if cb.Sel != nil {
		return int(cb.Sel[k])
	}
	return k
}

// EnsureSel installs an explicit identity selection vector (reusing pooled
// capacity) and returns it, so callers can filter it in place.
func (cb *ColBatch) EnsureSel() []int32 {
	if cb.Sel != nil {
		return cb.Sel
	}
	if cap(cb.sel) < cb.n {
		cb.sel = make([]int32, cb.n)
	} else {
		cb.sel = cb.sel[:cb.n]
	}
	for i := range cb.sel {
		cb.sel[i] = int32(i)
	}
	cb.Sel = cb.sel
	return cb.Sel
}

// EnsureCols sizes table t's column vector list to arity, reusing capacity.
func (cb *ColBatch) EnsureCols(t, arity int) *ColTable {
	tab := &cb.Tabs[t]
	if cap(tab.Cols) < arity {
		tab.Cols = make([]Vec, arity)
	} else {
		tab.Cols = tab.Cols[:arity]
	}
	return tab
}

// LoadRows fills table t of an empty batch with rows transposed into arity
// column vectors, and keeps rows as the table's Src: the caller vouches they
// are immutable from here on.
func (cb *ColBatch) LoadRows(t, arity int, rows []tuple.Row) {
	tab := cb.EnsureCols(t, arity)
	for _, r := range rows {
		for c := 0; c < arity; c++ {
			tab.Cols[c].AppendV(r[c])
		}
	}
	cb.n = len(rows)
	tab.Src = rows
}

// TSAt returns the build timestamp of row i's component of table t.
func (cb *ColBatch) TSAt(t, i int) tuple.Timestamp {
	ts := cb.Tabs[t].TS
	if i >= len(ts) {
		return tuple.InfTS
	}
	return ts[i]
}

// SetTS records the build timestamp of row i's component of table t,
// padding unrecorded earlier rows with InfTS.
func (cb *ColBatch) SetTS(t, i int, ts tuple.Timestamp) {
	tab := &cb.Tabs[t]
	for len(tab.TS) <= i {
		tab.TS = append(tab.TS, tuple.InfTS)
	}
	tab.TS[i] = ts
}

// RowTS returns the tuple timestamp of physical row i: the maximum component
// build timestamp over the span, or InfTS if any spanned component is
// unbuilt — exactly tuple.Tuple.TS.
func (cb *ColBatch) RowTS(i int) tuple.Timestamp {
	var max tuple.Timestamp
	for t := range cb.Span.Each {
		ts := cb.TSAt(t, i)
		if ts == tuple.InfTS {
			return tuple.InfTS
		}
		if ts > max {
			max = ts
		}
	}
	return max
}

// Value returns column col of table t at physical row i.
func (cb *ColBatch) Value(t, col, i int) value.V {
	return cb.Tabs[t].Cols[col].ValueAt(i)
}

// SameHeader reports whether two batches share identical routing state, the
// precondition for merging them into one coalesced batch.
func (cb *ColBatch) SameHeader(o *ColBatch) bool {
	if cb.NTables != o.NTables || cb.Span != o.Span || cb.Done != o.Done ||
		cb.Built != o.Built || cb.PriorProber != o.PriorProber ||
		cb.ProbeTable != o.ProbeTable || cb.AMProbed != o.AMProbed ||
		cb.HasMatches != o.HasMatches || cb.LastMatchTS != o.LastMatchTS ||
		len(cb.Visits) != len(o.Visits) {
		return false
	}
	for i, v := range cb.Visits {
		if o.Visits[i] != v {
			return false
		}
	}
	return true
}

// CopyHeaderFrom copies the routing-state header (not the rows) of src.
func (cb *ColBatch) CopyHeaderFrom(src *ColBatch) {
	cb.shape(src.NTables)
	cb.Span = src.Span
	cb.Done = src.Done
	cb.Built = src.Built
	cb.PriorProber = src.PriorProber
	cb.ProbeTable = src.ProbeTable
	cb.AMProbed = src.AMProbed
	cb.HasMatches = src.HasMatches
	cb.LastMatchTS = src.LastMatchTS
	cb.Visits = append(cb.Visits[:0], src.Visits...)
	for t := range src.Span.Each {
		cb.EnsureCols(t, len(src.Tabs[t].Cols))
	}
}

// AppendRowFrom gathers physical row i of src (which must span the same
// tables with the same arities) onto the end of cb.
func (cb *ColBatch) AppendRowFrom(src *ColBatch, i int) {
	for t := range src.Span.Each {
		stab := &src.Tabs[t]
		for c := range stab.Cols {
			cb.Tabs[t].Cols[c].AppendV(stab.Cols[c].ValueAt(i))
		}
		if ts := src.TSAt(t, i); ts != tuple.InfTS {
			cb.SetTS(t, cb.n, ts)
		}
		cb.Tabs[t].Src = nil
	}
	// A destination with an explicit selection stays consistent: the new
	// physical row is live.
	if cb.Sel != nil {
		cb.Sel = append(cb.Sel, int32(cb.n))
	}
	cb.n++
}

// AppendAllFrom gathers every live row of src onto cb (the coalescing merge).
func (cb *ColBatch) AppendAllFrom(src *ColBatch) {
	for k := 0; k < src.Rows(); k++ {
		cb.AppendRowFrom(src, src.RowAt(k))
	}
}

// materialized counts, process-wide, the rows Materialize has boxed: what fell
// off the column path, whichever module or stage pushed it off.
var materialized atomic.Uint64

// MaterializedRows reports how many rows this process has converted from
// column vectors back into tuples. A configuration that stays on columns from
// scan to sink leaves it unmoved.
func MaterializedRows() uint64 { return materialized.Load() }

// Materialize converts the live rows into row-representation tuples — the
// inverse of the Lift direction. All backing storage (tuples, component
// slices, values, cloned visit vectors) is slab-allocated: a handful of
// allocations per batch instead of several per tuple.
func (cb *ColBatch) Materialize() []*tuple.Tuple {
	live := cb.Rows()
	if live == 0 {
		return nil
	}
	materialized.Add(uint64(live))
	nt := cb.NTables
	arity := 0
	for t := range cb.Span.Each {
		arity += len(cb.Tabs[t].Cols)
	}
	tupSlab := make([]tuple.Tuple, live)
	compSlab := make([]tuple.Row, live*nt)
	tsSlab := make([]tuple.Timestamp, live*nt)
	valSlab := make([]value.V, live*arity)
	var visitSlab []uint16
	if len(cb.Visits) > 0 {
		visitSlab = make([]uint16, live*len(cb.Visits))
	}
	out := make([]*tuple.Tuple, live)
	vi := 0
	for k := 0; k < live; k++ {
		i := cb.RowAt(k)
		tp := &tupSlab[k]
		tp.Comp = compSlab[k*nt : (k+1)*nt : (k+1)*nt]
		tp.CompTS = tsSlab[k*nt : (k+1)*nt : (k+1)*nt]
		for t := 0; t < nt; t++ {
			tp.CompTS[t] = tuple.InfTS
		}
		for t := range cb.Span.Each {
			tab := &cb.Tabs[t]
			w := len(tab.Cols)
			row := valSlab[vi : vi+w : vi+w]
			vi += w
			for c := range tab.Cols {
				row[c] = tab.Cols[c].ValueAt(i)
			}
			tp.Comp[t] = row
			tp.CompTS[t] = cb.TSAt(t, i)
		}
		tp.Span = cb.Span
		tp.Done = cb.Done
		tp.Built = cb.Built
		tp.PriorProber = cb.PriorProber
		tp.ProbeTable = cb.ProbeTable
		tp.AMProbed = cb.AMProbed
		tp.LastMatchTS = cb.LastMatchTS
		if cb.HasMatches {
			tp.LastProbeMatches = 1
		}
		if visitSlab != nil {
			v := visitSlab[k*len(cb.Visits) : (k+1)*len(cb.Visits)]
			copy(v, cb.Visits)
			tp.Visits = v
		}
		out[k] = tp
	}
	return out
}

// ColEmission is one columnar batch emitted by a module, delivered back to
// the eddy at once: only row emissions carry a delay (a paced scan's
// per-row delivery times are what keeps it on rows).
type ColEmission struct {
	B *ColBatch
}

// ColModule is a module that can exchange columnar batches with a
// columnar-aware engine. ProcessColBatch services one batch whose payload is
// either columnar (b.Col != nil) or rows, returning row emissions for
// tuples whose state diverged plus columnar emissions for the bulk, with
// the total sequential service cost. Engines that do not know about columns
// simply call Process/ProcessBatch and never observe a difference.
type ColModule interface {
	Module
	ProcessColBatch(b *Batch, now clock.Time) (rows []Emission, cols []ColEmission, cost clock.Duration)
}

// colPool recycles ColBatch shells and their vector storage; Reset keeps
// capacity so steady-state columnar dataflow allocates no vector memory.
var colPool = sync.Pool{New: func() any { return &ColBatch{} }}

// GetColBatch returns an empty pooled batch shaped for nTables tables.
func GetColBatch(nTables int) *ColBatch {
	cb := colPool.Get().(*ColBatch)
	cb.shape(nTables)
	return cb
}

// PutColBatch resets cb and returns it to the pool. Callers must not retain
// any reference into the batch afterwards.
func PutColBatch(cb *ColBatch) {
	cb.Reset()
	colPool.Put(cb)
}
