// sharedstems.go gives the server catalog ownership of long-lived shared
// SteMs: the first query that uses a registered table builds shared state
// for it (stem.BuildShared) keyed by (table, join columns, shard count), and
// every concurrent or later query with the same key attaches a probe-only
// handle instead of rebuilding — the paper's "SteM state is shareable across
// queries" pitch, lifted from per-query modules to the serving layer.
//
// Lifecycle rules, enforced here and stress-tested by the storm tests:
//
//   - Builds and extensions are single-flight: one goroutine builds or
//     extends while concurrent attachers wait on the entry's ready channel,
//     all holding a reference from the moment they decided to attach.
//   - A state is memory and nothing else, so there is no teardown: an entry
//     dropped from the map (replaced, evicted) lives exactly as long as the
//     queries still probing it and is then the garbage collector's.
//     Refcounts gate the two things that would disturb a reader — in-place
//     extension and eviction — and balance attaches against detaches.
//   - REGISTER detaches lazily, INSERT extends: an entry remembers the
//     catalog generation it was built at and how many of the table's rows it
//     has absorbed. A different generation (REGISTER, a new index) drops it
//     from the map; the next attach rebuilds, and running queries keep the
//     old state until they release. The same generation with more rows is an
//     append: the attacher inserts just the new rows into the existing state
//     (stem.SharedState.Extend) — but only while no query is attached,
//     otherwise the entry is dropped and rebuilt as above. An attacher whose
//     snapshot has *fewer* rows than the state absorbed bound before an
//     INSERT that someone else already extended past; it runs on private
//     SteMs, so no query sees rows newer than its snapshot.
//   - Eviction is capacity-driven: when capBytes is set, the
//     least-recently-attached unreferenced entries are dropped until the
//     total footprint fits. Referenced entries are never evicted.
package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/sql"
	"repro/internal/stem"
	"repro/internal/tuple"
)

// sharedKey identifies one shared build: a catalog table, the join-column
// signature the dictionaries index, and the shard count.
type sharedKey struct {
	table  string
	cols   string
	shards int
}

// colsSig renders sorted join columns as a key component.
func colsSig(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// normShards normalizes a shard request the way stem.BuildShared does, so
// requests for 3 and 4 shards share one key and one build.
func normShards(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// sharedEntry is one catalog-owned build. All fields are guarded by the
// manager's mutex; state and err are written by the builder before the ready
// channel of that build closes.
type sharedEntry struct {
	key sharedKey
	// gen and rows say what the state holds once ready closes: the first
	// rows rows of the table at catalog generation gen.
	gen   uint64
	rows  int
	ready chan struct{} // replaced for each extension
	state *stem.SharedState
	err   error

	refs int
	seq  uint64 // last-attach sequence, for LRU eviction
}

// sharedStems is the catalog-owned shared-SteM manager.
type sharedStems struct {
	mu      sync.Mutex
	entries map[sharedKey]*sharedEntry
	seq     uint64

	// capBytes bounds the total footprint across entries; 0 is unlimited.
	capBytes int64

	builds    atomic.Uint64
	extends   atomic.Uint64
	attaches  atomic.Uint64
	detaches  atomic.Uint64
	evictions atomic.Uint64
}

func newSharedStems(capBytes int64) *sharedStems {
	return &sharedStems{entries: make(map[sharedKey]*sharedEntry), capBytes: capBytes}
}

// attach returns a referenced entry for (table, keyCols, shards) holding
// exactly src's rows, building the shared state on first use and extending
// it after an append. The caller must release the entry exactly once when its
// query stops probing the state. A nil entry with a nil error means src is an
// older snapshot than the state has absorbed: the query must run private.
func (m *sharedStems) attach(table string, src sql.Source, keyCols []int, shards int) (*sharedEntry, error) {
	key := sharedKey{table: table, cols: colsSig(keyCols), shards: normShards(shards)}
	rows := src.Data.Rows
	var delta []tuple.Row // the rows this call extends the state with
	m.mu.Lock()
	e := m.entries[key]
	switch {
	case e == nil:
	case e.gen != src.Gen:
		// REGISTER replaced the table since this entry was built: rebuild.
		// Running queries keep the old state through their reference.
		e = nil
	case len(rows) < e.rows:
		m.mu.Unlock()
		return nil, nil
	case len(rows) > e.rows && e.refs > 0:
		// INSERT grew the table under an attached reader (or an in-flight
		// build or extension — whoever runs one holds a reference): rebuild
		// beside it.
		e = nil
	case len(rows) > e.rows:
		delta = rows[e.rows:]
		e.rows, e.ready = len(rows), make(chan struct{})
	}
	build := e == nil
	if build {
		key.table = strings.Clone(table) // table slices a request's text, which the map must not keep
		e = &sharedEntry{key: key, gen: src.Gen, rows: len(rows), ready: make(chan struct{})}
		m.entries[key] = e
	}
	e.refs++
	m.seq++
	e.seq = m.seq
	ready := e.ready
	m.mu.Unlock()

	switch {
	case build:
		m.builds.Add(1)
		state, err := stem.BuildShared(stem.SharedConfig{KeyCols: keyCols, Shards: shards}, rows)
		m.mu.Lock()
		e.state, e.err = state, err
		if err != nil && m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(ready)
	case delta != nil:
		m.extends.Add(1)
		e.state.Extend(delta) // ours alone while in flight
		close(ready)
	default:
		<-ready
	}
	if e.err != nil {
		m.release(e)
		return nil, e.err
	}
	m.attaches.Add(1)
	m.maybeEvict()
	return e, nil
}

// release drops one reference.
func (m *sharedStems) release(e *sharedEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.refs <= 0 {
		panic("server: shared SteM refcount underflow")
	}
	e.refs--
	if e.err == nil {
		m.detaches.Add(1)
	}
}

// maybeEvict drops least-recently-attached unreferenced entries until the
// total footprint fits capBytes.
func (m *sharedStems) maybeEvict() {
	if m.capBytes <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, e := range m.entries {
		if e.state != nil {
			total += e.state.ResidentBytes()
		}
	}
	for total > m.capBytes {
		var victim *sharedEntry
		for _, e := range m.entries {
			if e.refs > 0 || e.state == nil {
				continue
			}
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if victim == nil {
			break // everything oversized is referenced; retry on later attaches
		}
		delete(m.entries, victim.key)
		total -= victim.state.ResidentBytes()
		m.evictions.Add(1)
	}
}

// counts returns the lifetime counters for /metrics.
func (m *sharedStems) counts() (builds, attaches, detaches, evictions uint64) {
	return m.builds.Load(), m.attaches.Load(), m.detaches.Load(), m.evictions.Load()
}

// bytes sums the live entries' footprint for the resident-bytes gauge.
func (m *sharedStems) bytes() (resident int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.state != nil {
			resident += e.state.ResidentBytes()
		}
	}
	return resident
}

// entryCount returns the number of live entries.
func (m *sharedStems) entryCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// refSnapshot returns the per-entry refcounts, for lifecycle tests.
func (m *sharedStems) refSnapshot() map[sharedKey]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[sharedKey]int, len(m.entries))
	for k, e := range m.entries {
		out[k] = e.refs
	}
	return out
}

// sharedPlan is one execution's set of shared-SteM attachments: states by
// table position (nil = private) plus the referenced entries to release when
// the execution stops probing. A nil *sharedPlan means "all private" and is
// safe to call methods on.
type sharedPlan struct {
	m       *sharedStems
	states  []*stem.SharedState
	entries []*sharedEntry
}

// release drops the plan's references. Call exactly once per execution,
// after the engine has unwound (no goroutine may still be probing).
func (p *sharedPlan) release() {
	if p == nil {
		return
	}
	for _, e := range p.entries {
		p.m.release(e)
	}
}

// planAttach decides which of a query's tables can ride catalog-owned
// shared SteMs and attaches them, returning a referenced plan (release
// exactly once) or nil to fall back to all-private execution.
//
// At least one table — the driver — always stays private, so its scan
// drives the dataflow and every result tuple spans it; tuples spanning the
// driver are never probed into the driver's SteM, which keeps the private
// and shared timestamp counters out of any single comparison. The driver is
// the smallest table (ties to the earliest FROM position): its per-query
// build is the cheapest to redo, so the largest states get shared.
//
// Fallback (nil plan) cases: fewer than two tables, a driver with no scan
// access method (nothing would seed the dataflow), a non-driver table with
// no join columns (nothing to key its dictionary on), a join graph
// not connected from the driver (a cross-product leg would need the
// attached table's scan, which attachments do not run), or a snapshot older
// than the rows a table's state has already absorbed.
func (m *sharedStems) planAttach(st *sql.Stmt, q *query.Q, snap sql.MapCatalog, shards int) (*sharedPlan, error) {
	n := q.NumTables()
	if m == nil || n < 2 || n != len(st.From) {
		return nil, nil
	}
	srcs := make([]sql.Source, n)
	driver := 0
	for i, ref := range st.From {
		src, ok := snap.Source(ref.Source)
		if !ok || src.Data == nil {
			return nil, nil // bind used this snapshot, so practically unreachable
		}
		srcs[i] = src
		if len(src.Data.Rows) < len(srcs[driver].Data.Rows) {
			driver = i
		}
	}
	if srcs[driver].Scan == nil {
		return nil, nil
	}
	reach := make([]bool, n)
	reach[driver] = true
	for changed := true; changed; {
		changed = false
		for _, p := range q.Preds {
			if !p.IsJoin() {
				continue
			}
			if l, r := p.Left.Table, p.Right.Table; reach[l] != reach[r] {
				reach[l], reach[r] = true, true
				changed = true
			}
		}
	}
	cols := make([][]int, n)
	for t := 0; t < n; t++ {
		if t == driver {
			continue
		}
		if !reach[t] {
			return nil, nil
		}
		if cols[t] = stem.JoinCols(q, t); len(cols[t]) == 0 {
			return nil, nil
		}
	}
	plan := &sharedPlan{m: m, states: make([]*stem.SharedState, n)}
	for t := 0; t < n; t++ {
		if t == driver {
			continue
		}
		e, err := m.attach(st.From[t].Source, srcs[t], cols[t], shards)
		if err != nil {
			plan.release()
			return nil, fmt.Errorf("shared SteM build for %q failed: %w", st.From[t].Source, err)
		}
		if e == nil {
			plan.release()
			return nil, nil
		}
		plan.entries = append(plan.entries, e)
		plan.states[t] = e.state
	}
	return plan, nil
}

// debugString renders the manager's state for error messages in tests.
func (m *sharedStems) debugString() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for k, e := range m.entries {
		fmt.Fprintf(&b, "%v refs=%d ", k, e.refs)
	}
	return b.String()
}
