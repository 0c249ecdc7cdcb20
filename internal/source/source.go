// Package source models data sources: in-memory base tables dressed up as
// the volatile, autonomously-maintained remote sources of Telegraph FFF.
//
// The paper's experiments drive synthetic sources whose "index lookups are
// implemented as sleeps of identical duration" (Table 3) and whose scans can
// stall mid-query (Section 3.4). A Source pairs a table's rows with the
// timing behaviour of each access path: scans deliver rows at a configurable
// pace with optional stall windows; index lookups cost a configurable
// latency with bounded concurrency.
package source

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/schema"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Table is a concrete table: schema plus rows.
type Table struct {
	Schema *schema.Table
	Rows   []tuple.Row
}

// NewTable pairs a schema with rows, validating arity and column kinds.
func NewTable(s *schema.Table, rows []tuple.Row) (*Table, error) {
	for i, r := range rows {
		if err := CheckRow(s, r); err != nil {
			return nil, fmt.Errorf("source: %s row %d %w", s.Name, i, err)
		}
	}
	return &Table{Schema: s, Rows: rows}, nil
}

// CheckRow validates one row's arity and column kinds against a schema. The
// error is the bare complaint ("has 1 fields, want 2"); the caller says
// which row of what.
func CheckRow(s *schema.Table, r tuple.Row) error {
	if len(r) != s.Arity() {
		return fmt.Errorf("has %d fields, want %d", len(r), s.Arity())
	}
	for j, v := range r {
		if v.K != s.Cols[j].Kind && !v.IsNull() {
			return fmt.Errorf("col %s is %v, want %v", s.Cols[j].Name, v.K, s.Cols[j].Kind)
		}
	}
	return nil
}

// MustTable is NewTable but panics on error.
func MustTable(s *schema.Table, rows []tuple.Row) *Table {
	t, err := NewTable(s, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// Stall describes a window during which a scan stops delivering rows,
// modelling a delayed or temporarily unavailable Web source.
type Stall struct {
	// AfterRows is the number of rows delivered before the stall begins.
	AfterRows int
	// For is the stall duration.
	For clock.Duration
}

// ScanSpec configures a scan access path over a source.
type ScanSpec struct {
	// StartDelay postpones the first row.
	StartDelay clock.Duration
	// InterArrival is the pacing between consecutive rows.
	InterArrival clock.Duration
	// Stalls are delivery gaps, applied in order.
	Stalls []Stall
}

// Unpaced reports whether the scan delivers every row at once: no start
// delay, inter-arrival or stall.
func (s ScanSpec) Unpaced() bool {
	return s.StartDelay == 0 && s.InterArrival == 0 && len(s.Stalls) == 0
}

// RowTimes returns the delivery offset of every row and of the final EOT,
// relative to the scan's seed time.
func (s ScanSpec) RowTimes(n int) (rows []clock.Duration, eot clock.Duration) {
	rows = make([]clock.Duration, n)
	t := s.StartDelay
	si := 0
	for i := 0; i < n; i++ {
		for si < len(s.Stalls) && s.Stalls[si].AfterRows == i {
			t += s.Stalls[si].For
			si++
		}
		t += s.InterArrival
		rows[i] = t
	}
	return rows, t
}

// IndexSpec configures an index access path over a source.
type IndexSpec struct {
	// KeyCols are the bind-field columns of the index (the lookup key).
	KeyCols []int
	// Latency is the cost of one remote lookup round trip.
	Latency clock.Duration
	// Parallel bounds concurrent outstanding lookups; 0 means unbounded
	// (fully asynchronous), 1 serializes lookups.
	Parallel int
}

// Index is a prebuilt lookup structure over a table's rows on a key-column
// set, supporting equality lookups. Buckets are keyed by the hash of the key
// columns; Lookup verifies candidates against the actual values, so hash
// collisions only cost a skipped row, never a wrong result.
type Index struct {
	Spec IndexSpec
	m    map[uint64][]int
	rows []tuple.Row
}

// BuildIndex constructs the index eagerly (the remote source is presumed to
// have it already; only lookups cost latency).
func BuildIndex(t *Table, spec IndexSpec) (*Index, error) {
	for _, c := range spec.KeyCols {
		if c < 0 || c >= t.Schema.Arity() {
			return nil, fmt.Errorf("source: index on %s: bad key column %d", t.Schema.Name, c)
		}
	}
	ix := &Index{Spec: spec, m: make(map[uint64][]int), rows: t.Rows}
	for i, r := range t.Rows {
		k := r.HashCols(spec.KeyCols)
		ix.m[k] = append(ix.m[k], i)
	}
	return ix, nil
}

// Lookup returns the rows whose key columns equal the given values, in table
// order. The values slice is parallel to Spec.KeyCols.
func (ix *Index) Lookup(vals []value.V) []tuple.Row {
	if len(vals) != len(ix.Spec.KeyCols) {
		panic(fmt.Sprintf("source: Lookup with %d values for %d key cols", len(vals), len(ix.Spec.KeyCols)))
	}
	idxs := ix.m[tuple.Row(vals).Hash64()]
	out := make([]tuple.Row, 0, len(idxs))
	for _, j := range idxs {
		r := ix.rows[j]
		match := true
		for i, c := range ix.Spec.KeyCols {
			if !r[c].Equal(vals[i]) {
				match = false
				break
			}
		}
		if match {
			out = append(out, r)
		}
	}
	return out
}
