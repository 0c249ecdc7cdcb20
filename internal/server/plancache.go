// plancache.go is the server's bounded plan cache: the Prepare half of the
// Parse → Prepare → Execute split. A cache entry holds a statement bound at
// a specific catalog version plus a pool of reset-and-reuse execution
// handles (core.Exec), so a hot EXECUTE (or a repeated ad-hoc SELECT, which
// auto-prepares under its canonical text) admission-checks and runs without
// re-parsing, re-binding, or rebuilding the operator graph. Every bounded
// query goes through an entry.
//
// Invalidation is lazy and version-driven: REGISTER bumps the catalog
// version, and a lookup whose snapshot version differs from the entry's
// marks the entry dead and misses. In-flight executions are unaffected —
// they hold their own reference to the entry and their own handle, and a
// dead entry simply stops accepting handles back. The cache is bounded by
// LRU eviction and exposes hit/miss/invalidation/eviction counters.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
)

// planEntry is one cached plan: the bound statement, the catalog version it
// was bound at, and a pool of reusable execution handles. A handle is never
// shared: an execution takes it from the pool (or builds one), runs, and
// returns it only after a clean completion — core.Exec.Reset (see
// internal/eddy/reset_test.go) makes a reset handle indistinguishable from a
// freshly built one, except for the routing policy it deliberately keeps.
// A pooled handle is what derives from the query — router, policy, predicate
// caches — and holds no data: its SteMs' dictionary storage was released to
// the process-wide pool in internal/stem before it came back (any plan's next
// build uses it), and it holds no shared-SteM references — each execution
// attaches and releases its own — so one dropped silently by the GC leaks
// nothing and costs only a router to rebuild.
type planEntry struct {
	// key identifies one executable plan shape: the one request knob that
	// changes a pooled handle's router — the routing policy — then a NUL
	// byte, then the canonical statement text; policy and canon are its two
	// parts. The server-wide seed is fixed for the process.
	key, policy, canon string
	version            uint64
	bound              *sql.Bound

	// dead flips when the entry is invalidated or evicted: handles are no
	// longer accepted back, so a dead entry drains as executions finish.
	dead atomic.Bool
	// refs counts in-flight executions using this entry's bound plan.
	refs atomic.Int64
	// hits counts lookups that landed on this entry.
	hits atomic.Uint64

	handles sync.Pool // of *core.Exec

	elem *list.Element // LRU position; guarded by the cache mutex
}

// unref drops an execution's reference.
func (e *planEntry) unref() { e.refs.Add(-1) }

// planCache is a bounded, LRU-evicting map from plan key to entry.
type planCache struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*planEntry
	lru   *list.List // front = most recently used; values are *planEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		byKey: make(map[string]*planEntry),
		lru:   list.New(),
	}
}

// acquire looks up the entry for key bound at the given catalog version. On
// a hit it takes a reference (released with unref) and reports true. An entry
// bound at a different version is invalidated here, lazily — the miss sends
// the caller off to rebind, and insert replaces the entry. The key is looked
// up straight from its bytes, without a string made of them.
func (pc *planCache) acquire(key []byte, version uint64) (*planEntry, bool) {
	pc.mu.Lock()
	e, ok := pc.byKey[string(key)]
	if ok && e.version != version {
		pc.removeLocked(e)
		pc.invalidations.Add(1)
		ok = false
	}
	if !ok {
		pc.mu.Unlock()
		pc.misses.Add(1)
		return nil, false
	}
	pc.lru.MoveToFront(e.elem)
	e.refs.Add(1)
	pc.mu.Unlock()
	pc.hits.Add(1)
	e.hits.Add(1)
	return e, true
}

// insert publishes a freshly bound plan entry, returning the entry to
// execute with (referenced; release with unref). When a concurrent miss
// already published the same key at the same version, the racing loser
// adopts the winner's entry so both executions share one handle pool.
func (pc *planCache) insert(e *planEntry) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.byKey[e.key]; ok {
		if old.version == e.version {
			pc.lru.MoveToFront(old.elem)
			old.refs.Add(1)
			return old
		}
		pc.removeLocked(old)
		pc.invalidations.Add(1)
	}
	e.refs.Add(1)
	e.elem = pc.lru.PushFront(e)
	pc.byKey[e.key] = e
	for pc.lru.Len() > pc.cap {
		victim := pc.lru.Back().Value.(*planEntry)
		pc.removeLocked(victim)
		pc.evictions.Add(1)
	}
	return e
}

// removeLocked unlinks an entry and marks it dead; the caller holds pc.mu.
func (pc *planCache) removeLocked(e *planEntry) {
	delete(pc.byKey, e.key)
	pc.lru.Remove(e.elem)
	e.dead.Store(true)
}

// size reports the number of live entries.
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.byKey)
}

// planInfo is one entry's /plans listing.
type planInfo struct {
	SQL            string `json:"sql"`
	Policy         string `json:"policy"`
	CatalogVersion uint64 `json:"catalog_version"`
	Hits           uint64 `json:"hits"`
	InFlight       int64  `json:"in_flight"`
}

// entries lists the cache in most-recently-used order.
func (pc *planCache) entries() []planInfo {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]planInfo, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		out = append(out, planInfo{
			SQL:            e.canon,
			Policy:         e.policy,
			CatalogVersion: e.version,
			Hits:           e.hits.Load(),
			InFlight:       e.refs.Load(),
		})
	}
	return out
}

// counters snapshots the cache-wide counters for /metrics.
func (pc *planCache) counters() (hits, misses, invalidations, evictions uint64) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load(), pc.evictions.Load()
}
