// shared.go implements catalog-owned shared SteM state: the paper's pitch
// that SteMs "encapsulate the state of a join so it can be shared" extends
// across queries, not just across the competing access methods of one query.
// A SharedState is the result of building a SteM over a registered table's
// rows once — one hash dictionary, memory and nothing else — that any
// number of concurrent queries attach to with probe-only SteM handles
// (Config.Shared) instead of rebuilding. It is sealed *between* extensions:
// like the paper's SteM it keeps taking build tuples for as long as its table
// grows (Extend), but only while no query is attached. The owner bounds
// shared memory by evicting whole states.
//
// Correctness of attaching hinges on a completeness/timestamp-window
// argument:
//
//   - The state is complete and sealed whenever a query is attached: every
//     stored row carries a build timestamp in [1, HighWater] issued by the
//     state's own counter, and no row is added, evicted, or mutated while a
//     handle exists. An attaching query therefore probes against the exact
//     window "TS ≤ HighWater", which is the whole state.
//   - Extend continues the same insertion loop past the old HighWater, in
//     place. The owner (the server's sharedStems) calls it only while the
//     state is unreferenced, behind the gate new attachers wait on. The owner
//     also refuses to attach a query whose catalog snapshot is older than the
//     rows the state has absorbed — that query runs on private SteMs — so no
//     query ever sees a row newer than the snapshot it bound. Probes are not
//     bounded by a high-water mark; extension under concurrent readers would
//     need that.
//   - An attached SteM is always complete (the shared build subsumes a full
//     scan EOT), so probes are never bounced and the query's
//     LastMatchTimeStamp bookkeeping never sees a shared timestamp.
//   - Concatenations from shared entries carry component timestamp 0, so the
//     shared counter's values never mix with the attaching query's own
//     counter (the two are incomparable). The query-local TimeStamp rule
//     still orders the query's private builds exactly as before.
//   - The shared dictionary is read lock-free: it is immutable while
//     attached, and both probes only read — the row probe through
//     HashDict.Candidates, the columnar probe (col.go's probeCols, which an
//     attached SteM takes whenever a private one would) by walking the bucket
//     chains. Both skip the TimeStamp window, stamp 0 and never bounce.
//     Per-query scratch (lookups, probe buffers, stats) stays in the attaching
//     SteM handle.
//
// The result is multiset-identical to a private-state run of the same query
// (TestSharedStemsAgree): the shared build applies the same set-semantics
// duplicate elimination a private build does, and predicate verification at
// concatenation is unchanged. Building rows[:k] and extending with rows[k:]
// stores exactly what building rows does (TestSharedExtendAgrees).
package stem

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/pred"
	"repro/internal/tuple"
)

// SharedConfig parameterizes a shared build.
type SharedConfig struct {
	// KeyCols are the columns the dictionary indexes — the attaching
	// queries' join columns on this table, sorted ascending (stem.JoinCols
	// order). Must be non-empty.
	KeyCols []int
	// Shards is ignored: only the frozen benchmark harness still sets it,
	// and it goes with ROADMAP item 1.
	Shards int
}

// SharedState is one shared SteM build. Immutable except inside Extend; safe
// for concurrent probe use by any number of attached SteMs between
// extensions.
type SharedState struct {
	keyCols []int
	dict    *HashDict

	highWater tuple.Timestamp
	rows      int
	// residentBytes is atomic because the owner's footprint gauge reads it
	// while an extension is in flight.
	residentBytes atomic.Int64
}

// BuildShared builds shared SteM state over rows: a new empty state, extended
// once. The build applies set-semantics duplicate elimination, exactly like
// a private SteM build fed by a scan.
func BuildShared(cfg SharedConfig, rows []tuple.Row) (*SharedState, error) {
	if len(cfg.KeyCols) == 0 {
		return nil, fmt.Errorf("stem: shared build requires key columns")
	}
	ss := &SharedState{keyCols: slices.Clone(cfg.KeyCols)}
	ss.dict = NewHashDict(ss.keyCols)
	ss.Extend(rows)
	return ss, nil
}

// Extend inserts rows — the table's growth since the state was built or last
// extended — continuing the timestamp counter past HighWater. It must only be
// called while no SteM is attached (the server's refcounts and ready gate see
// to that).
func (ss *SharedState) Extend(rows []tuple.Row) {
	for _, row := range rows {
		if ss.dict.Contains(row) {
			continue
		}
		ss.highWater++
		ss.dict.Insert(row, ss.highWater)
		ss.residentBytes.Add(RowFootprint(row))
		ss.rows++
	}
}

// KeyCols returns the indexed columns (attachers must join on exactly these).
func (ss *SharedState) KeyCols() []int { return ss.keyCols }

// Rows returns the number of distinct rows stored.
func (ss *SharedState) Rows() int { return ss.rows }

// ResidentBytes returns the state's footprint, for catalog accounting.
func (ss *SharedState) ResidentBytes() int64 { return ss.residentBytes.Load() }

// RowFootprint estimates the resident bytes of one stored row: the slice
// header and per-entry index bookkeeping, plus the value structs and their
// string payloads. Shared state accounts its rows at this granularity.
func RowFootprint(row tuple.Row) int64 {
	fp := int64(48)
	for _, v := range row {
		fp += 32 + int64(len(v.S))
	}
	return fp
}

// Close does nothing: a SharedState is memory and holds no file. It is kept
// only because the frozen bench/layers.go still calls it; the next benchmark
// PR deletes the call and this method.
func (ss *SharedState) Close() error { return nil }

// newAttached builds a probe-only SteM handle over sealed shared state. The
// handle owns per-query scratch, probe buffers, and stats; the dictionary
// belongs to the SharedState and is never written.
func newAttached(cfg Config) *SteM {
	ss := cfg.Shared
	if cfg.Window > 0 {
		panic("stem: attached SteMs take no window")
	}
	s := &SteM{
		cfg:    cfg,
		name:   fmt.Sprintf("SteM(%s)", cfg.Q.Tables[cfg.Table].Name),
		dict:   ss.dict,
		shared: ss,
	}
	s.joinCols = JoinCols(cfg.Q, cfg.Table)
	if !slices.Equal(s.joinCols, ss.keyCols) {
		panic(fmt.Sprintf("stem: attached SteM on %s joins on %v but shared state indexes %v",
			s.name, s.joinCols, ss.keyCols))
	}
	s.scr.predCache = make(map[tuple.TableSet][]pred.P)
	return s
}
