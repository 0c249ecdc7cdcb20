// Package stem implements State Modules (SteMs), the paper's core
// contribution (Section 2.1.4). A SteM is "half a join": a dictionary over
// the singleton tuples of one base table that handles build (insert) and
// probe (lookup) requests, returning concatenated matches to the eddy. The
// SteM internally enforces the SteM BounceBack and TimeStamp constraints of
// Table 2, so "the routing policy implementor need not be aware of them at
// all".
//
// A SteM may be split into hash-partitioned shards (Config.Shards): each
// shard owns a dictionary, a lock, and probe scratch state, partitioned by
// the hash of the table's first join column. Builds and probes that bind
// that column address exactly one shard, so the concurrent engine can drive
// every shard from its own worker and their service overlaps — the
// intra-operator parallelism the paper's "every module in its own thread"
// setting calls for once one SteM saturates a core. Probes that do not bind
// the partition column sweep all shards under a consistent lock set, and
// EOT/completeness metadata is shared across shards, so sharding never
// changes results. One shard (the default) is exactly the unsharded SteM.
package stem

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Counter issues the global, monotonically increasing build timestamps of
// the TimeStamp constraint. It is shared by every SteM of a query and safe
// for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Next returns the next timestamp (starting at 1, so 0 is "never matched"
// for LastMatchTimeStamp purposes).
func (c *Counter) Next() tuple.Timestamp { return c.v.Add(1) }

// Reset restarts the counter from zero, for pooled plan shells that run the
// same query repeatedly. Must not race Next.
func (c *Counter) Reset() { c.v.Store(0) }

// ProbeBounceMode selects when a SteM bounces back probe tuples beyond the
// mandatory cases of Table 2.
type ProbeBounceMode uint8

const (
	// BounceAuto bounces a probe only when required for correctness: the
	// SteM cannot prove it holds all matches and either the table has no
	// scan AM or some base component of the probe is not yet cached.
	BounceAuto ProbeBounceMode = iota
	// BounceIfIndexAM additionally bounces any incomplete probe when the
	// table has an index AM, even if a scan AM exists. This is the Section
	// 4.1 policy hook that lets the eddy choose, per bounced tuple, between
	// probing the index AM and relying on the scan — the mechanism behind
	// the index/hash hybridization of Section 4.3.
	BounceIfIndexAM
)

// Config parameterizes a SteM.
type Config struct {
	// Table is the query position of the base table this SteM materializes.
	Table int
	// Q is the enclosing query.
	Q *query.Q
	// TS is the shared build-timestamp counter.
	TS *Counter
	// Shards splits the SteM into this many hash-partitioned sub-stores,
	// rounded up to a power of two. 0 or 1 keeps a single store (the exact
	// historical behaviour). Tables with no join columns are never sharded —
	// no probe could address a partition — and windowed SteMs (Window > 0)
	// stay unsharded because window eviction order is global state.
	Shards int
	// BuildCost and ProbeCost are the service times charged per operation.
	BuildCost clock.Duration
	ProbeCost clock.Duration
	// PerMatchCost is charged per concatenated match returned.
	PerMatchCost clock.Duration
	// ProbeBounce selects the probe bounce-back mode.
	ProbeBounce ProbeBounceMode
	// Window, when >0, bounds the number of stored rows; the oldest rows are
	// evicted on overflow, supporting sliding-window continuous queries
	// (Section 2.3 mentions [17, 5] use SteMs with eviction). Eviction
	// invalidates completeness, so windowed SteMs never claim to hold all
	// matches. A windowed SteM is never sharded: evicting the globally
	// oldest row is cross-shard state, and per-shard approximations would
	// make windowed results depend on the shard count.
	Window int
	// Shared, when non-nil, attaches this SteM to catalog-owned sealed
	// state (see shared.go): the SteM becomes a probe-only handle over the
	// SharedState's dictionaries — always complete, never built into, shard
	// count fixed by the state. Shards and Window must be unset; the
	// table's join columns must equal the state's key columns.
	Shared *SharedState
}

// Stats are cumulative SteM counters, exposed for experiments and tests.
type Stats struct {
	Builds       uint64 // rows stored
	DupBuilds    uint64 // builds consumed as set-semantics duplicates
	Probes       uint64 // probe tuples processed
	Matches      uint64 // concatenated results returned
	ProbeBounces uint64 // probes bounced back
	Evictions    uint64 // rows evicted by the window bound
	EOTs         uint64 // EOT tuples built in
}

// add accumulates o into s, for cross-shard aggregation.
func (s *Stats) add(o Stats) {
	s.Builds += o.Builds
	s.DupBuilds += o.DupBuilds
	s.Probes += o.Probes
	s.Matches += o.Matches
	s.ProbeBounces += o.ProbeBounces
	s.Evictions += o.Evictions
	s.EOTs += o.EOTs
}

// probeScratch is the reusable per-probe state of one synchronization
// domain (a shard, or the sweep path): lk is the reused lookup, bindScratch
// the reused bound-value row, catScratch recycles concatenations that failed
// predicate verification, and predCache memoizes JoinPredsConnecting per
// probe span. Guarded by the owning shard's mutex (or gmu for the sweep).
type probeScratch struct {
	lk          Lookup
	bindScratch tuple.Row
	catScratch  *tuple.Tuple
	predCache   map[tuple.TableSet][]pred.P
	// pc is the per-run probe cache; each batch run invalidates it on entry
	// and reuses its storage (see probeCache).
	pc probeCache
	// Columnar probe scratch (col.go): the equi-bind plan, the dictionary
	// index position per plan entry, the verify predicate set, and per-row
	// match flags — all reused across batches under the same lock.
	colPlan    []colBind
	colDi      []int
	colVerify  []pred.P
	colMatched []bool
}

// shard is one hash partition of a SteM: a dictionary with its own lock,
// counters, and probe scratch. With one shard the SteM degenerates to the
// historical single-store layout.
type shard struct {
	mu    sync.Mutex
	dict  *HashDict
	stats Stats
	scr   probeScratch
	// idx is this shard's position, used to salt probe-cache keys so
	// sweep runs never serve one shard's candidate list for another's.
	idx int
	// self is the one-element shard list handed to probeLocked, so
	// single-shard probes allocate no slice.
	self [1]*shard
}

// colRef locates one column of one table.
type colRef struct {
	table, col int
}

// SteM is a State Module on one base table.
type SteM struct {
	cfg  Config
	name string

	// joinCols are the table's columns involved in join predicates; pcol is
	// the partition column (joinCols[0]) and shardMask the hash mask used to
	// pick a shard. pcolSources are the (table, column) pairs an equi-join
	// predicate binds to pcol, precomputed so the per-tuple ShardOf never
	// scans the predicate list. All immutable after New.
	joinCols    []int
	pcol        int
	shardMask   uint64
	pcolSources []colRef

	shards []shard
	all    []*shard // &shards[i] in order, for sweep lock acquisition

	// liveRows counts stored rows across all shards, enforcing the global
	// Window bound without cross-shard locking.
	liveRows atomic.Int64

	// gmu serializes sweep probes (probes that bind no partition column and
	// must visit every shard) and guards their scratch and counters. Lock
	// order is gmu before shard mutexes before eotMu; sweeps acquire every
	// shard mutex in ascending index order.
	gmu    sync.Mutex
	gscr   probeScratch
	gstats Stats

	// eotMu guards the completeness metadata shared by all shards. Probes
	// read it (complete) with shard locks held; writers never take shard
	// locks while holding it.
	eotMu   sync.RWMutex
	fullEOT bool
	// eot records, per distinct bound-column signature, the bound-value rows
	// for which all matches have been transmitted (hash-with-verify keyed).
	eot []eotIdx
	// eotSeen counts per-shard deliveries of one replicated EOT tuple
	// (flow.ShardAll), so its global record is applied exactly once, after
	// every shard has observed it.
	eotSeen  map[*tuple.Tuple]int
	eotCount uint64

	// shared is the catalog-owned state this SteM is attached to (nil for a
	// private SteM). Attached SteMs never build, never bounce probes, ignore
	// the TimeStamp window (the state is sealed before the query starts, so
	// the probe's window is exactly "everything stored"), and concatenate
	// shared rows with component timestamp 0 so the state's build counter
	// never mixes with the query's own.
	shared *SharedState
}

// eotIdx is the completeness metadata of index EOT tuples for one
// bound-column signature: the set of bound-value rows fully transmitted,
// keyed by row hash and verified by row equality on lookup.
type eotIdx struct {
	cols []int
	keys map[uint64][]tuple.Row
}

// New creates a SteM from a config.
func New(cfg Config) *SteM {
	if cfg.Shared != nil {
		return newAttached(cfg)
	}
	s := &SteM{
		cfg:  cfg,
		name: fmt.Sprintf("SteM(%s)", cfg.Q.Tables[cfg.Table].Name),
		pcol: -1,
	}
	s.joinCols = JoinCols(cfg.Q, cfg.Table)

	nsh := 1
	if cfg.Shards > 1 && len(s.joinCols) > 0 && cfg.Window == 0 {
		for nsh < cfg.Shards {
			nsh <<= 1
		}
	}
	if nsh > 1 {
		pc := s.joinCols[0]
		s.pcol = pc
		for _, p := range cfg.Q.Preds {
			if !p.IsEquiJoin() {
				continue
			}
			if p.Left.Table == cfg.Table && p.Left.Col == pc {
				s.pcolSources = append(s.pcolSources, colRef{p.Right.Table, p.Right.Col})
			}
			if p.Right.Table == cfg.Table && p.Right.Col == pc {
				s.pcolSources = append(s.pcolSources, colRef{p.Left.Table, p.Left.Col})
			}
		}
	}
	s.shardMask = uint64(nsh - 1)
	s.shards = make([]shard, nsh)
	s.all = make([]*shard, nsh)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.dict = acquireDict(s.joinCols)
		sh.scr.predCache = make(map[tuple.TableSet][]pred.P)
		sh.idx = i
		sh.self[0] = sh
		s.all[i] = sh
	}
	s.gscr.predCache = make(map[tuple.TableSet][]pred.P)
	return s
}

// JoinCols returns the columns of table t involved in join predicates of q —
// the columns a SteM builds hash indexes on.
func JoinCols(q *query.Q, t int) []int {
	seen := make(map[int]bool)
	var cols []int
	for _, p := range q.Preds {
		if !p.IsJoin() {
			continue
		}
		if p.Left.Table == t && !seen[p.Left.Col] {
			seen[p.Left.Col] = true
			cols = append(cols, p.Left.Col)
		}
		if p.Right.Table == t && !seen[p.Right.Col] {
			seen[p.Right.Col] = true
			cols = append(cols, p.Right.Col)
		}
	}
	sort.Ints(cols)
	return cols
}

// Name implements flow.Module.
func (s *SteM) Name() string { return s.name }

// Parallel implements flow.Module: each shard is a single-server partition,
// so the SteM's service capacity is its shard count (1 when unsharded).
func (s *SteM) Parallel() int { return len(s.shards) }

// Shards implements flow.Sharded.
func (s *SteM) Shards() int { return len(s.shards) }

// Stats returns a snapshot of the SteM's counters, aggregated across shards.
func (s *SteM) Stats() Stats {
	var tot Stats
	for _, sh := range s.all {
		sh.mu.Lock()
		tot.add(sh.stats)
		sh.mu.Unlock()
	}
	s.gmu.Lock()
	tot.add(s.gstats)
	s.gmu.Unlock()
	s.eotMu.RLock()
	tot.EOTs += s.eotCount
	s.eotMu.RUnlock()
	return tot
}

// Reset empties the SteM back to its just-constructed state so a pooled
// router can run the same query again: empty dictionaries — its own, cleared
// in place, or after a Release ones acquired from the process-wide pool —
// zeroed counters, no completeness metadata. The per-shard predicate caches
// and probe scratch derive from the query, not the run, and are kept — that
// reuse is part of the payoff of pooling. Must not be called while a run is
// in progress.
func (s *SteM) Reset() {
	if s.shared != nil {
		// Detach, don't clear: the dictionaries belong to the SharedState
		// and other queries are probing them concurrently. Only this
		// handle's per-run state resets (reset_test.go pins this contract
		// for pooled plan-cache shells).
		for _, sh := range s.all {
			sh.mu.Lock()
			sh.stats = Stats{}
			sh.mu.Unlock()
		}
		s.gmu.Lock()
		s.gstats = Stats{}
		s.gmu.Unlock()
		s.eotMu.Lock()
		s.fullEOT = false
		s.eot = nil
		s.eotSeen = nil
		s.eotCount = 0
		s.eotMu.Unlock()
		return
	}
	for _, sh := range s.all {
		sh.mu.Lock()
		if sh.dict != nil {
			sh.dict.Clear()
		} else {
			sh.dict = acquireDict(s.joinCols)
		}
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
	s.liveRows.Store(0)
	s.gmu.Lock()
	s.gstats = Stats{}
	s.gmu.Unlock()
	s.eotMu.Lock()
	s.fullEOT = false
	s.eot = nil
	s.eotSeen = nil
	s.eotCount = 0
	s.eotMu.Unlock()
}

// Release hands the dictionaries' storage to the process-wide pool, cleared,
// for whichever query builds next; the SteM holds no rows afterwards and must
// be Reset before it is used again. Counters stay readable. Only a plain
// private SteM releases: shared state is other queries' too, and a windowed
// SteM's rows are on the eviction count's books, which no Reset rewinds — it
// keeps its storage for the collector. Must not be called while a run is in
// progress, nor between the rounds of a standing query: the next round probes
// what the earlier ones built.
func (s *SteM) Release() {
	if s.cfg.Window > 0 || s.shared != nil {
		return
	}
	for _, sh := range s.all {
		sh.mu.Lock()
		if sh.dict != nil {
			releaseDict(sh.dict)
			sh.dict = nil
		}
		sh.mu.Unlock()
	}
	s.liveRows.Store(0)
}

// Size returns the number of stored rows across all shards (none once
// released).
func (s *SteM) Size() int {
	n := 0
	for _, sh := range s.all {
		sh.mu.Lock()
		if sh.dict != nil {
			n += sh.dict.Len()
		}
		sh.mu.Unlock()
	}
	return n
}

// ShardOf implements flow.Sharded: this SteM's own EOT tuples must be
// observed by every shard; builds and probes that bind the partition column
// address its hash shard; probes that do not bind it sweep all shards
// (flow.ShardAny). A foreign table's EOT (never routed here by the eddy,
// but reachable through the public Module interface) is treated as a probe
// over the whole store, matching the single-shard dispatch.
func (s *SteM) ShardOf(t *tuple.Tuple) int {
	if len(s.shards) == 1 {
		return 0
	}
	if t.EOT != nil {
		if t.EOT.Table == s.cfg.Table {
			return flow.ShardAll
		}
		return flow.ShardAny
	}
	if t.IsSingleton() && t.SingleTable() == s.cfg.Table && !t.Built.Has(s.cfg.Table) {
		return int(t.Comp[s.cfg.Table][s.pcol].Hash64() & s.shardMask)
	}
	if v, ok := s.pcolBinding(t); ok {
		return int(v.Hash64() & s.shardMask)
	}
	return flow.ShardAny
}

// pcolBinding derives the value the probe tuple binds to the partition
// column via an equality join predicate; ok is false if none does. Matches
// of such a probe all carry this value in the partition column (the equality
// is verified on concatenation), so they live in exactly one shard.
func (s *SteM) pcolBinding(t *tuple.Tuple) (value.V, bool) {
	for _, src := range s.pcolSources {
		if t.Span.Has(src.table) {
			return t.Value(src.table, src.col), true
		}
	}
	return value.V{}, false
}

// Process implements flow.Module, dispatching on the tuple's role:
// EOT tuples and unbuilt singletons of this SteM's table are builds;
// everything else is a probe.
func (s *SteM) Process(t *tuple.Tuple, now clock.Time) ([]flow.Emission, clock.Duration) {
	return s.processOne(t)
}

func (s *SteM) processOne(t *tuple.Tuple) ([]flow.Emission, clock.Duration) {
	switch sd := s.ShardOf(t); sd {
	case flow.ShardAll:
		// Single-call delivery (simulator / unsharded engines): the EOT is
		// recorded on behalf of every shard at once.
		s.recordEOT(t)
		return nil, s.cfg.BuildCost
	case flow.ShardAny:
		return s.sweepRun([]*tuple.Tuple{t})
	default:
		sh := &s.shards[sd]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return s.processShardLocked(sh, t, nil)
	}
}

// ProcessBatch implements flow.BatchModule: the batch is processed in runs
// of same-shard tuples, taking each shard's lock once per run; probes
// sharing a lookup key within a run reuse one candidate list (builds within
// the run invalidate it, since they change the dictionary). With one shard
// the whole batch is one run — the lock is taken once, exactly the
// historical behaviour — and a batch of one behaves exactly like Process.
func (s *SteM) ProcessBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, clock.Duration) {
	return s.processRuns(b, -1)
}

// ProcessShard implements flow.Sharded: services a batch delivered to one
// shard's queue. EOT copies delivered here count down to the global
// completeness record, applied by whichever delivery is last.
func (s *SteM) ProcessShard(shardIdx int, b *flow.Batch, now clock.Time) ([]flow.Emission, clock.Duration) {
	return s.processRuns(b, shardIdx)
}

// processRuns drives a batch through shard-homogeneous runs. homeShard >= 0
// marks per-shard delivery semantics for ShardAll tuples (count down to the
// global record); -1 marks single-call semantics.
func (s *SteM) processRuns(b *flow.Batch, homeShard int) ([]flow.Emission, clock.Duration) {
	var out []flow.Emission
	var total clock.Duration
	i := 0
	sd := 0
	if len(b.Tuples) > 0 {
		sd = s.ShardOf(b.Tuples[0])
	}
	for i < len(b.Tuples) {
		// Extend the run while tuples share sd, computing each tuple's
		// shard exactly once (the boundary tuple's shard carries over as
		// the next run's sd).
		j := i + 1
		next := sd
		for j < len(b.Tuples) {
			if next = s.ShardOf(b.Tuples[j]); next != sd {
				break
			}
			j++
		}
		switch sd {
		case flow.ShardAll:
			for _, t := range b.Tuples[i:j] {
				if homeShard >= 0 {
					s.applyEOTShard(t)
				} else {
					s.recordEOT(t)
				}
				total += s.cfg.BuildCost
			}
		case flow.ShardAny:
			ems, cost := s.sweepRun(b.Tuples[i:j])
			out = append(out, ems...)
			total += cost
		default:
			sh := &s.shards[sd]
			sh.mu.Lock()
			sh.scr.pc.invalidate()
			for _, t := range b.Tuples[i:j] {
				ems, cost := s.processShardLocked(sh, t, &sh.scr.pc)
				out = append(out, ems...)
				total += cost
			}
			sh.mu.Unlock()
		}
		i, sd = j, next
	}
	return out, total
}

// processShardLocked serves one tuple against one shard with sh.mu held.
// pc, when non-nil, caches probe candidate lists across the tuples of one
// same-shard run.
func (s *SteM) processShardLocked(sh *shard, t *tuple.Tuple, pc *probeCache) ([]flow.Emission, clock.Duration) {
	switch {
	case t.EOT != nil && t.EOT.Table == s.cfg.Table:
		// Only reachable with a single shard (multi-shard EOTs are
		// ShardAll): "all shards" is this one.
		s.recordEOT(t)
		return nil, s.cfg.BuildCost
	case t.IsSingleton() && t.SingleTable() == s.cfg.Table && !t.Built.Has(s.cfg.Table):
		if pc != nil {
			pc.invalidate()
		}
		return s.build(sh, t), s.cfg.BuildCost
	default:
		out := s.probeLocked(t, pc, &sh.scr, &sh.stats, sh.self[:])
		return out, s.cfg.ProbeCost + clock.Duration(len(out))*s.cfg.PerMatchCost
	}
}

// sweepRun serves a run of probes that bind no partition column: it
// acquires every shard's lock once for the whole run (ascending, after gmu)
// so each probe sees one consistent snapshot of the whole SteM — exactly
// what the unsharded SteM sees — and LastMatchTimeStamp bookkeeping stays
// sound. The run is all probes (builds and own-table EOTs never classify
// ShardAny; a foreign EOT arriving here is probed, as the single-shard path
// does), so the dictionaries cannot change mid-run and one probe cache
// serves the whole run, with entries salted by shard.
func (s *SteM) sweepRun(ts []*tuple.Tuple) ([]flow.Emission, clock.Duration) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for _, sh := range s.all {
		sh.mu.Lock()
	}
	var out []flow.Emission
	var total clock.Duration
	s.gscr.pc.invalidate()
	for _, t := range ts {
		ems := s.probeLocked(t, &s.gscr.pc, &s.gscr, &s.gstats, s.all)
		out = append(out, ems...)
		total += s.cfg.ProbeCost + clock.Duration(len(ems))*s.cfg.PerMatchCost
	}
	for _, sh := range s.all {
		sh.mu.Unlock()
	}
	return out, total
}

// probeCache memoizes dictionary candidate lists by hashed lookup key within
// one batch, so probes grouped on the same key hash once. Entries carry the
// equality constraints they were computed for, verifying them on every hit
// (hash-with-verify: two lookups colliding on the 64-bit key must not share
// candidates). Builds and evictions invalidate the cache.
//
// The cache lives in its synchronization domain's probeScratch and is
// invalidated — not reallocated — between runs: the map keeps its buckets and
// the entry arena keeps its slots (including each slot's cols/vals capacity),
// so steady-state probing on a pooled router allocates only for genuinely new
// keys.
type probeCache struct {
	m    map[uint64][]int // lookup-key hash -> indices into ents
	ents []cachedCands
}

// cachedCands is one verified cache entry. salt carries the shard index the
// entry was computed against: sweep runs probe several dictionaries with the
// same lookup, and one shard's candidate list must never answer for
// another's.
type cachedCands struct {
	salt uint64
	cols []int
	vals []value.V
	es   []Entry
}

// invalidate empties the cache in place, keeping the map's buckets and the
// arena's slots for reuse.
func (pc *probeCache) invalidate() {
	clear(pc.m)
	pc.ents = pc.ents[:0]
}

// candidates returns d's candidates for lk, consulting and filling the
// cache. salt distinguishes the shard d belongs to within one cache.
func (pc *probeCache) candidates(d *HashDict, lk Lookup, salt uint64) []Entry {
	if pc == nil {
		return d.Candidates(lk)
	}
	key := value.MixUint64(lk.cacheKey(), salt)
	for _, i := range pc.m[key] {
		c := &pc.ents[i]
		if c.salt == salt && lk.equiEqual(c.cols, c.vals) {
			return c.es
		}
	}
	es := d.Candidates(lk)
	if pc.m == nil {
		pc.m = make(map[uint64][]int)
	}
	// The lookup's slices are per-shard scratch reused by the next probe, so
	// the cache keeps its own copies — written into a recycled arena slot
	// when one is free, preserving its cols/vals capacity.
	n := len(pc.ents)
	if n < cap(pc.ents) {
		pc.ents = pc.ents[:n+1]
	} else {
		pc.ents = append(pc.ents, cachedCands{})
	}
	c := &pc.ents[n]
	c.salt = salt
	c.cols = append(c.cols[:0], lk.EquiCols...)
	c.vals = append(c.vals[:0], lk.EquiVals...)
	c.es = es
	pc.m[key] = append(pc.m[key], n)
	return es
}

// build stores a singleton into sh (whose mutex is held) and bounces it back
// (SteM BounceBack: "a SteM must bounce back a build tuple unless it is a
// duplicate of another tuple already in the SteM").
func (s *SteM) build(sh *shard, t *tuple.Tuple) []flow.Emission {
	if s.shared != nil {
		// Unreachable by construction: the router creates no access methods
		// for attached tables, so no singleton of this table ever exists.
		panic("stem: build routed to an attached (shared-state) SteM")
	}
	row := t.Comp[s.cfg.Table]
	if sh.dict.Contains(row) {
		sh.stats.DupBuilds++
		return nil // duplicate from a competitive AM: consumed (Section 3.2)
	}
	ts := s.cfg.TS.Next()
	sh.dict.Insert(row, ts)
	s.liveRows.Add(1)
	t.CompTS[s.cfg.Table] = ts
	t.Built = t.Built.With(s.cfg.Table)
	sh.stats.Builds++
	if s.cfg.Window > 0 {
		// Windowed SteMs are always single-shard (see Config.Shards), so
		// liveRows is this dictionary's row count and the oldest live row is
		// the globally oldest.
		for s.liveRows.Load() > int64(s.cfg.Window) {
			if _, ok := sh.dict.Evict(); !ok {
				break
			}
			s.liveRows.Add(-1)
			sh.stats.Evictions++
		}
	}
	return []flow.Emission{flow.Emit(t)}
}

// applyEOTShard handles one per-shard delivery of a replicated EOT tuple
// (flow.ShardAll): the global completeness record waits for the last shard's
// delivery, guaranteeing every build queued ahead of the EOT in any shard has
// been stored before the SteM claims completeness.
func (s *SteM) applyEOTShard(t *tuple.Tuple) {
	s.eotMu.Lock()
	if s.eotSeen == nil {
		s.eotSeen = make(map[*tuple.Tuple]int)
	}
	s.eotSeen[t]++
	last := s.eotSeen[t] == len(s.shards)
	if last {
		delete(s.eotSeen, t)
	}
	s.eotMu.Unlock()
	if last {
		s.recordEOT(t)
	}
}

// recordEOT applies an End-Of-Transmission tuple's global effect ("an EOT
// tuple from an AM on S is also routed as a build tuple to SteM(S)"; it is
// stored, as completeness metadata, and consumed): a full EOT marks the SteM
// complete; an index EOT records its bound-value row in the completeness
// index for its bound-column signature.
func (s *SteM) recordEOT(t *tuple.Tuple) {
	s.eotMu.Lock()
	defer s.eotMu.Unlock()
	s.eotCount++
	info := t.EOT
	if len(info.BoundCols) == 0 {
		s.fullEOT = true
		return
	}
	idx := s.eotIdxFor(info.BoundCols)
	row := t.Comp[s.cfg.Table]
	bound := make(tuple.Row, len(info.BoundCols))
	for i, c := range info.BoundCols {
		bound[i] = row[c]
	}
	h := bound.Hash64()
	for _, r := range idx.keys[h] {
		if r.Equal(bound) {
			return // already recorded
		}
	}
	idx.keys[h] = append(idx.keys[h], bound)
}

// eotIdxFor returns (creating on first use) the completeness index for one
// bound-column signature. The signature list is tiny — one entry per
// distinct index key shape — so a linear scan beats any map keying.
// s.eotMu must be held for writing.
func (s *SteM) eotIdxFor(cols []int) *eotIdx {
	for i := range s.eot {
		if slices.Equal(s.eot[i].cols, cols) {
			return &s.eot[i]
		}
	}
	s.eot = append(s.eot, eotIdx{
		cols: slices.Clone(cols),
		keys: make(map[uint64][]tuple.Row),
	})
	return &s.eot[len(s.eot)-1]
}

// probeLocked finds matches for t among the rows stored in held (whose
// mutexes the caller holds), concatenates them (verifying every newly
// applicable predicate and enforcing the TimeStamp rule), and decides
// whether to bounce t back per the SteM BounceBack constraint. scr and
// stats belong to the same synchronization domain as held.
func (s *SteM) probeLocked(t *tuple.Tuple, pc *probeCache, scr *probeScratch, stats *Stats, held []*shard) []flow.Emission {
	stats.Probes++

	preds, ok := scr.predCache[t.Span]
	if !ok {
		preds = s.cfg.Q.JoinPredsConnecting(t.Span, s.cfg.Table)
		scr.predCache[t.Span] = preds
	}
	lookupInto(&scr.lk, t, s.cfg.Table, preds)
	probeTS := t.TS()
	lastMatch := t.LastMatchTS

	var out []flow.Emission
	for _, sh := range held {
		for _, e := range pc.candidates(sh.dict, scr.lk, uint64(sh.idx)) {
			catTS := e.TS
			if s.shared != nil {
				// Attached probe: every shared entry was sealed before the
				// query started, so the probe's exact window is the whole
				// state (TS ≤ HighWater) — the resident TimeStamp rule would
				// compare incomparable counters. Component timestamp 0 keeps
				// shared timestamps out of the query's tuples.
				catTS = 0
			} else if e.TS >= probeTS || e.TS <= lastMatch {
				// TimeStamp constraint: result returned iff ts(probe) > ts(match);
				// LastMatchTimeStamp guards repeated probes (§3.5).
				continue
			}
			// Concatenate the stored row directly (no singleton
			// materialization), recycling the component slices of failed
			// concatenations.
			cat := t.ConcatRowInto(scr.catScratch, s.cfg.Table, e.Row, catTS)
			if !s.verify(cat) {
				scr.catScratch = cat
				continue
			}
			scr.catScratch = nil
			stats.Matches++
			out = append(out, flow.Emit(cat))
		}
	}

	t.LastProbeMatches = len(out)
	if s.shouldBounce(t, scr) {
		t.PriorProber = true
		t.ProbeTable = s.cfg.Table
		// The highest timestamp this probe can have observed: matches for a
		// partition-bound probe all live in its home shard, so a sweep over
		// held covers every row the re-probe may legally skip.
		var maxTS tuple.Timestamp
		for _, sh := range held {
			maxTS = max(maxTS, sh.dict.MaxTS())
		}
		t.LastMatchTS = maxTS
		stats.ProbeBounces++
		out = append(out, flow.Emit(t))
	}
	return out
}

// verify evaluates every query predicate that is applicable to the
// concatenated tuple and not already passed, marking the done bits; it
// reports whether all of them hold ("these concatenated matches are all
// tuples ... that satisfy all query predicates that can be evaluated on the
// columns in t and S").
func (s *SteM) verify(cat *tuple.Tuple) bool {
	for _, p := range s.cfg.Q.Preds {
		if cat.Done.Has(p.ID) || !p.ApplicableTo(cat.Span) {
			continue
		}
		if !p.Eval(cat) {
			return false
		}
		cat.Done = cat.Done.With(p.ID)
	}
	return true
}

// shouldBounce implements the SteM BounceBack rule for probes (Table 2),
// plus the BounceIfIndexAM extension of Section 4.1.
func (s *SteM) shouldBounce(t *tuple.Tuple, scr *probeScratch) bool {
	if s.complete(t, scr) {
		return false // the SteM provably holds all matches: consume.
	}
	q := s.cfg.Q
	safeViaScan := q.HasScanAM(s.cfg.Table) && t.Built.Contains(t.Span) && s.cfg.Window == 0
	if !safeViaScan {
		return true // mandatory bounce: missing matches would otherwise be lost.
	}
	if s.cfg.ProbeBounce == BounceIfIndexAM && q.HasIndexAM(s.cfg.Table) {
		return true // optional bounce: give the eddy the index-probe choice.
	}
	return false
}

// complete reports whether the SteM provably contains all matches for probe
// t: a scan EOT has arrived, or an index EOT covering t's bind values is
// stored (the "cache on index lookups" role of Section 3.3).
func (s *SteM) complete(t *tuple.Tuple, scr *probeScratch) bool {
	if s.shared != nil {
		return true // sealed shared state subsumes a full scan EOT
	}
	if s.cfg.Window > 0 {
		return false
	}
	s.eotMu.RLock()
	defer s.eotMu.RUnlock()
	if s.fullEOT {
		return true
	}
	for i := range s.eot {
		idx := &s.eot[i]
		bound, ok := s.bindCols(t, idx.cols, scr)
		if !ok {
			continue
		}
		h := bound.Hash64()
		for _, r := range idx.keys[h] {
			if r.Equal(bound) {
				return true
			}
		}
	}
	return false
}

// bindCols derives the values of the given columns of this SteM's table from
// probe t via equality join predicates, into scr's reused scratch row; ok is
// false if any column is unbound. The returned row is only valid until the
// next bindCols call on the same scratch.
func (s *SteM) bindCols(t *tuple.Tuple, cols []int, scr *probeScratch) (tuple.Row, bool) {
	row := scr.bindScratch[:0]
	for _, c := range cols {
		found := false
		for _, p := range s.cfg.Q.Preds {
			if !p.IsEquiJoin() {
				continue
			}
			if p.Left.Table == s.cfg.Table && p.Left.Col == c && t.Span.Has(p.Right.Table) {
				row = append(row, t.Value(p.Right.Table, p.Right.Col))
				found = true
				break
			}
			if p.Right.Table == s.cfg.Table && p.Right.Col == c && t.Span.Has(p.Left.Table) {
				row = append(row, t.Value(p.Left.Table, p.Left.Col))
				found = true
				break
			}
		}
		if !found {
			scr.bindScratch = row[:0]
			return nil, false
		}
	}
	scr.bindScratch = row[:0]
	return row, true
}
