// Package tuple implements the tuple model of the paper: tuples composed of
// base-table components (Definition 1), spans, and the per-tuple TupleState
// the eddy uses to track query progress (Section 2.1.1), including the
// done-bit bitmap of passed predicates, build-timestamps used by the
// TimeStamp routing constraint, and prior-prober bookkeeping used by the
// ProbeCompletion constraint.
package tuple

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/value"
)

// Row is the projection of a tuple on one base table: a single base-table
// component (Definition 1).
type Row []value.V

// Equal reports value-equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key returns a stable string encoding of the row. Distinct rows always map
// to distinct keys; the test oracle relies on that injectivity. Engine paths
// use Hash64 instead, which allocates nothing.
func (r Row) Key() string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// Hash64 returns a stable, allocation-free hash of the row: the values
// folded in order into one FNV-1a state. Hashes are not injective — storage
// keyed by them must verify candidates with Equal (hash-with-verify).
func (r Row) Hash64() uint64 {
	h := value.HashSeed
	for _, v := range r {
		h = v.HashInto(h)
	}
	return h
}

// HashCols returns the Hash64 of the projection of r on cols, without
// materializing the projected row.
func (r Row) HashCols(cols []int) uint64 {
	h := value.HashSeed
	for _, c := range cols {
		h = r[c].HashInto(h)
	}
	return h
}

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// TableSet is a bitset over the positions of base tables in a query's FROM
// list. Queries may reference at most 64 tables.
type TableSet uint64

// MaxTables is the largest number of base tables a single query may span.
const MaxTables = 64

// Single returns the set containing only table position i.
func Single(i int) TableSet { return TableSet(1) << uint(i) }

// Has reports whether table position i is in the set.
func (s TableSet) Has(i int) bool { return s&Single(i) != 0 }

// With returns s plus table position i.
func (s TableSet) With(i int) TableSet { return s | Single(i) }

// Union returns the union of two sets.
func (s TableSet) Union(o TableSet) TableSet { return s | o }

// Intersects reports whether the two sets share any table.
func (s TableSet) Intersects(o TableSet) bool { return s&o != 0 }

// Contains reports whether every member of o is in s.
func (s TableSet) Contains(o TableSet) bool { return s&o == o }

// Count returns the number of tables in the set.
func (s TableSet) Count() int { return bits.OnesCount64(uint64(s)) }

// All returns the set of table positions {0..n-1}.
func All(n int) TableSet {
	if n >= MaxTables {
		return ^TableSet(0)
	}
	return TableSet(1)<<uint(n) - 1
}

// Members returns the table positions in ascending order. Hot paths use the
// allocation-free Each iterator instead.
func (s TableSet) Members() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// Each yields the table positions in ascending order without allocating;
// it is usable directly in a range statement: for i := range s.Each { ... }.
func (s TableSet) Each(yield func(int) bool) {
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		if !yield(i) {
			return
		}
		v &^= 1 << uint(i)
	}
}

// First returns the smallest table position in the set; it panics if the set
// is empty.
func (s TableSet) First() int {
	if s == 0 {
		panic("tuple: First on empty TableSet")
	}
	return bits.TrailingZeros64(uint64(s))
}

// String renders the set for debugging, e.g. "{0,2}".
func (s TableSet) String() string {
	ms := s.Members()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprint(m)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// PredSet is a bitset over predicate IDs: the "donebits" of the paper
// (borrowed from the original eddies design [2]). Queries may carry at most
// 64 predicates.
type PredSet uint64

// SinglePred returns the set containing only predicate i.
func SinglePred(i int) PredSet { return PredSet(1) << uint(i) }

// Has reports whether predicate i is in the set.
func (s PredSet) Has(i int) bool { return s&SinglePred(i) != 0 }

// With returns s plus predicate i.
func (s PredSet) With(i int) PredSet { return s | SinglePred(i) }

// Union returns the union of two predicate sets.
func (s PredSet) Union(o PredSet) PredSet { return s | o }

// AllPreds returns the set of predicate IDs {0..n-1}.
func AllPreds(n int) PredSet {
	if n >= 64 {
		return ^PredSet(0)
	}
	return PredSet(1)<<uint(n) - 1
}

// Timestamp is the global, monotonically increasing build timestamp of the
// TimeStamp constraint (Section 3.1). InfTS is the timestamp of a singleton
// that has not yet been built into its SteM ("Before building, ts(t) is
// defined to be ∞").
type Timestamp = uint64

// InfTS is the timestamp of a not-yet-built singleton: +∞.
const InfTS Timestamp = ^Timestamp(0)

// EOTInfo marks a tuple as an End-Of-Transmission tuple (Section 2.1.3). An
// EOT tuple from an AM on table T encodes the probing predicate: for index
// lookups, BoundCols lists the index key columns whose values in the row are
// real; every other field holds the EOT marker value. A scan EOT has no bound
// columns (predicate "true": the whole table has been transmitted).
type EOTInfo struct {
	// Table is the query-position of the table the EOT describes.
	Table int
	// BoundCols are the column indexes (within the table) that carry real
	// values; nil for a scan EOT.
	BoundCols []int
}

// Tuple is a unit of dataflow: one or more base-table components plus the
// TupleState the eddy and the modules consult while routing.
type Tuple struct {
	// Comp holds the base-table components, indexed by table position in the
	// query FROM list; nil entries are tables the tuple does not span.
	Comp []Row
	// Span is the set of tables the tuple spans.
	Span TableSet
	// Done is the set of predicates the tuple has passed (donebits).
	Done PredSet
	// Built is the set of tables whose component of this tuple has been
	// built into the corresponding SteM.
	Built TableSet
	// CompTS holds the build timestamp of each component (InfTS before the
	// component is built). The tuple's timestamp is the max over spanned
	// components, per the TimeStamp constraint.
	CompTS []Timestamp

	// Seed marks the special empty seed tuple used to initialize scan AMs
	// (Section 2.1.3). SeedAM identifies the destination access module.
	Seed   bool
	SeedAM int

	// EOT is non-nil for End-Of-Transmission tuples.
	EOT *EOTInfo

	// PriorProber is set once the tuple has been bounced back after probing
	// into a SteM (Definition 3). ProbeTable is its probe completion table.
	// AMProbed is set once it has probed one of its probe completion AMs,
	// after which the eddy may remove it from the dataflow.
	PriorProber bool
	ProbeTable  int
	AMProbed    bool

	// LastProbeMatches records how many concatenated matches the tuple's most
	// recent SteM probe produced. Routing policies use it when deciding what
	// to do with a bounced-back probe: a bounced tuple that already found its
	// match (in an equi-key join) gains nothing from an index probe.
	LastProbeMatches int

	// LastMatchTS supports the relaxed BuildFirst mode of Section 3.5: on a
	// repeated probe into the same SteM, only matches with a strictly larger
	// build timestamp join, preventing duplicates across repeats.
	LastMatchTS Timestamp

	// Visits counts how many times the tuple has been routed to each module,
	// enforcing BoundedRepetition. It is sized lazily by the router.
	Visits []uint16
}

// blockArity is the largest query arity whose tuples are block-allocated: a
// tupleBlock co-allocates the Tuple header with its component and timestamp
// storage, collapsing the three allocations of a fresh tuple into one for
// the common small-join case.
const blockArity = 4

type tupleBlock struct {
	t    Tuple
	comp [blockArity]Row
	ts   [blockArity]Timestamp
}

// newTuple returns a zeroed n-ary tuple, block-allocated when n permits.
func newTuple(n int) *Tuple {
	if n <= blockArity {
		b := &tupleBlock{}
		b.t.Comp = b.comp[:n:n]
		b.t.CompTS = b.ts[:n:n]
		return &b.t
	}
	return &Tuple{Comp: make([]Row, n), CompTS: make([]Timestamp, n)}
}

// NewSingleton returns a singleton tuple (Definition 2) for table position
// table out of n query tables.
func NewSingleton(n, table int, row Row) *Tuple {
	t := newTuple(n)
	for i := range t.CompTS {
		t.CompTS[i] = InfTS
	}
	t.Span = Single(table)
	t.Comp[table] = row
	return t
}

// NewSeed returns the seed tuple that initializes the scan AM with module id
// am (Section 2.1.3).
func NewSeed(n, am int) *Tuple {
	t := newTuple(n)
	for i := range t.CompTS {
		t.CompTS[i] = InfTS
	}
	t.Seed = true
	t.SeedAM = am
	return t
}

// NewEOT returns an EOT tuple for the given table. The row carries the bound
// values in the bound columns and the EOT marker elsewhere.
func NewEOT(n, table int, row Row, boundCols []int) *Tuple {
	t := NewSingleton(n, table, row)
	t.EOT = &EOTInfo{Table: table, BoundCols: boundCols}
	return t
}

// IsSingleton reports whether the tuple spans exactly one base table.
func (t *Tuple) IsSingleton() bool { return t.Span.Count() == 1 }

// SingleTable returns the table position of a singleton tuple; it panics if
// the tuple is not a singleton.
func (t *Tuple) SingleTable() int {
	if !t.IsSingleton() {
		panic("tuple: SingleTable on non-singleton " + t.Span.String())
	}
	return t.Span.First()
}

// TS returns the tuple's timestamp: the maximum build timestamp over its
// spanned components ("the timestamp of its last arriving base-table
// component"). A tuple with any unbuilt component has timestamp InfTS.
func (t *Tuple) TS() Timestamp {
	var max Timestamp
	for i := range t.Span.Each {
		ts := t.CompTS[i]
		if ts == InfTS {
			return InfTS
		}
		if ts > max {
			max = ts
		}
	}
	return max
}

// Concat returns a new tuple concatenating t with m. The two tuples must span
// disjoint table sets. Done bits, Built bits, and component timestamps are
// merged. The result is not a prior prober even if t was; routing state does
// not carry across concatenation.
func (t *Tuple) Concat(m *Tuple) *Tuple {
	if t.Span.Intersects(m.Span) {
		panic("tuple: Concat of overlapping spans " + t.Span.String() + " and " + m.Span.String())
	}
	out := newTuple(len(t.Comp))
	out.Span = t.Span.Union(m.Span)
	out.Done = t.Done.Union(m.Done)
	out.Built = t.Built.Union(m.Built)
	copy(out.Comp, t.Comp)
	copy(out.CompTS, t.CompTS)
	for i := range m.Span.Each {
		out.Comp[i] = m.Comp[i]
		out.CompTS[i] = m.CompTS[i]
	}
	return out
}

// ConcatRowInto returns a tuple extending t with a single built base-table
// component: row at table position table with build timestamp ts. It is the
// common case of Concat on SteM and AM probe paths — concatenating a stored
// singleton — without materializing the singleton tuple first. It panics if
// t already spans table. The result is written into dst, reusing dst's
// component slices when they have capacity; dst may be nil, in which case a
// fresh tuple is allocated. Probe paths recycle concatenations that fail
// predicate verification through dst, so a probe with many non-qualifying
// candidates allocates once, not once per candidate. The returned tuple's
// routing state is reset, exactly as Concat resets it.
func (t *Tuple) ConcatRowInto(dst *Tuple, table int, row Row, ts Timestamp) *Tuple {
	if t.Span.Has(table) {
		panic("tuple: ConcatRowInto onto already-spanned table " + Single(table).String())
	}
	n := len(t.Comp)
	if dst == nil || cap(dst.Comp) < n || cap(dst.CompTS) < n {
		dst = newTuple(n)
	} else {
		*dst = Tuple{Comp: dst.Comp[:n], CompTS: dst.CompTS[:n]}
	}
	copy(dst.Comp, t.Comp)
	copy(dst.CompTS, t.CompTS)
	dst.Comp[table] = row
	dst.CompTS[table] = ts
	dst.Span = t.Span.With(table)
	dst.Done = t.Done
	dst.Built = t.Built.With(table)
	return dst
}

// Value returns the value of the given column of the given table's component.
// It panics if the tuple does not span the table.
func (t *Tuple) Value(table, col int) value.V {
	r := t.Comp[table]
	if r == nil {
		panic(fmt.Sprintf("tuple: Value(%d,%d) on tuple spanning %s", table, col, t.Span))
	}
	return r[col]
}

// ResultKey returns a canonical encoding of the tuple's components, used to
// compare result sets against the brute-force oracle in tests.
func (t *Tuple) ResultKey() string {
	ms := t.Span.Members()
	parts := make([]string, 0, len(ms))
	for _, i := range ms {
		parts = append(parts, fmt.Sprintf("%d:%s", i, t.Comp[i].Key()))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// String renders the tuple for debugging.
func (t *Tuple) String() string {
	if t.Seed {
		return fmt.Sprintf("seed(am=%d)", t.SeedAM)
	}
	var b strings.Builder
	if t.EOT != nil {
		fmt.Fprintf(&b, "eot[T%d]", t.EOT.Table)
	}
	b.WriteString(t.Span.String())
	for i := range t.Span.Each {
		b.WriteString(t.Comp[i].String())
	}
	if t.PriorProber {
		fmt.Fprintf(&b, "!pp(T%d)", t.ProbeTable)
	}
	return b.String()
}
