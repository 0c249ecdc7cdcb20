// Package stem implements State Modules (SteMs), the paper's core
// contribution (Section 2.1.4). A SteM is "half a join": a dictionary over
// the singleton tuples of one base table that handles build (insert) and
// probe (lookup) requests, returning concatenated matches to the eddy. The
// SteM internally enforces the SteM BounceBack and TimeStamp constraints of
// Table 2, so "the routing policy implementor need not be aware of them at
// all".
//
// A SteM is one dictionary under one lock, serviced by one worker of the
// concurrent engine — the paper's "each module runs in its own thread".
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
	// matches.
	Window int
	// Shared, when non-nil, attaches this SteM to catalog-owned sealed
	// state (see shared.go): the SteM becomes a probe-only handle over the
	// SharedState's dictionary — always complete, never built into. Window
	// must be unset; the table's join columns must equal the state's key
	// columns.
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

// probeScratch is the SteM's reusable per-probe state: lk is the reused
// lookup, bindScratch the reused bound-value row, catScratch recycles
// concatenations that failed predicate verification, and predCache memoizes
// JoinPredsConnecting per probe span. Guarded by the SteM's mutex.
type probeScratch struct {
	lk          Lookup
	bindScratch tuple.Row
	catScratch  *tuple.Tuple
	predCache   map[tuple.TableSet][]pred.P
	// Columnar probe scratch (col.go): the equi-bind plan, the dictionary
	// index position per plan entry, the verify predicate set, and per-row
	// match flags — all reused across batches under the same lock.
	colPlan    []colBind
	colDi      []int
	colVerify  []pred.P
	colMatched []bool
}

// SteM is a State Module on one base table.
type SteM struct {
	cfg  Config
	name string

	// joinCols are the table's columns involved in join predicates.
	// Immutable after New.
	joinCols []int

	// mu guards everything below: the dictionary, the counters, the probe
	// scratch and the completeness metadata. Every build, probe and EOT holds
	// it.
	mu    sync.Mutex
	dict  *HashDict
	stats Stats
	scr   probeScratch

	fullEOT bool
	// eot records, per distinct bound-column signature, the bound-value rows
	// for which all matches have been transmitted (hash-with-verify keyed).
	eot      []eotIdx
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
	}
	s.joinCols = JoinCols(cfg.Q, cfg.Table)
	s.dict = acquireDict(s.joinCols)
	s.scr.predCache = make(map[tuple.TableSet][]pred.P)
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

// Parallel implements flow.Module: a SteM is a single server.
func (s *SteM) Parallel() int { return 1 }

// Stats returns a snapshot of the SteM's counters.
func (s *SteM) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.EOTs += s.eotCount
	return st
}

// Reset empties the SteM back to its just-constructed state so a pooled
// router can run the same query again: an empty dictionary — its own, cleared
// in place, or after a Release one acquired from the process-wide pool —
// zeroed counters, no completeness metadata. The predicate cache and probe
// scratch derive from the query, not the run, and are kept — that reuse is
// part of the payoff of pooling. Must not be called while a run is in
// progress.
func (s *SteM) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// An attached SteM detaches, it doesn't clear: the dictionary belongs to
	// the SharedState and other queries are probing it concurrently. Only
	// this handle's per-run state resets (reset_test.go pins this contract
	// for pooled plan-cache shells).
	if s.shared == nil {
		if s.dict != nil {
			s.dict.Clear()
		} else {
			s.dict = acquireDict(s.joinCols)
		}
	}
	s.stats = Stats{}
	s.fullEOT = false
	s.eot = nil
	s.eotCount = 0
}

// Release hands the dictionary's storage to the process-wide pool, cleared,
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dict != nil {
		releaseDict(s.dict)
		s.dict = nil
	}
}

// Size returns the number of stored rows (none once released).
func (s *SteM) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dict == nil {
		return 0
	}
	return s.dict.Len()
}

// Process implements flow.Module, dispatching on the tuple's role:
// EOT tuples and unbuilt singletons of this SteM's table are builds;
// everything else is a probe.
func (s *SteM) Process(t *tuple.Tuple, now clock.Time) ([]flow.Emission, clock.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processLocked(t, nil)
}

// ProcessBatch implements flow.BatchModule: the lock is taken once for the
// whole batch. A batch of one behaves exactly like Process.
func (s *SteM) ProcessBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, clock.Duration) {
	return s.appendBatch(b, nil)
}

// appendBatch is ProcessBatch appending the emissions to out.
func (s *SteM) appendBatch(b *flow.Batch, out []flow.Emission) ([]flow.Emission, clock.Duration) {
	var total clock.Duration
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range b.Tuples {
		var cost clock.Duration
		out, cost = s.processLocked(t, out)
		total += cost
	}
	return out, total
}

// processLocked serves one tuple with s.mu held, appending its emissions to
// out.
func (s *SteM) processLocked(t *tuple.Tuple, out []flow.Emission) ([]flow.Emission, clock.Duration) {
	switch {
	case t.EOT != nil && t.EOT.Table == s.cfg.Table:
		s.recordEOT(t)
		return out, s.cfg.BuildCost
	case t.IsSingleton() && t.SingleTable() == s.cfg.Table && !t.Built.Has(s.cfg.Table):
		return s.build(t, out), s.cfg.BuildCost
	default:
		n := len(out)
		out = s.probeLocked(t, out)
		return out, s.cfg.ProbeCost + clock.Duration(len(out)-n)*s.cfg.PerMatchCost
	}
}

// build stores a singleton (s.mu held) and bounces it back (SteM
// BounceBack: "a SteM must bounce back a build tuple unless it is a
// duplicate of another tuple already in the SteM"), appending the bounce to
// out.
func (s *SteM) build(t *tuple.Tuple, out []flow.Emission) []flow.Emission {
	if s.shared != nil {
		// Unreachable by construction: the router creates no access methods
		// for attached tables, so no singleton of this table ever exists.
		panic("stem: build routed to an attached (shared-state) SteM")
	}
	row := t.Comp[s.cfg.Table]
	if s.dict.Contains(row) {
		s.stats.DupBuilds++
		return out // duplicate from a competitive AM: consumed (Section 3.2)
	}
	ts := s.cfg.TS.Next()
	s.dict.Insert(row, ts)
	t.CompTS[s.cfg.Table] = ts
	t.Built = t.Built.With(s.cfg.Table)
	s.stats.Builds++
	if s.cfg.Window > 0 {
		for s.dict.Len() > s.cfg.Window {
			if _, ok := s.dict.Evict(); !ok {
				break
			}
			s.stats.Evictions++
		}
	}
	return append(out, flow.Emit(t))
}

// recordEOT applies an End-Of-Transmission tuple's effect (s.mu held; "an
// EOT tuple from an AM on S is also routed as a build tuple to SteM(S)"; it
// is stored, as completeness metadata, and consumed): a full EOT marks the
// SteM complete; an index EOT records its bound-value row in the completeness
// index for its bound-column signature.
func (s *SteM) recordEOT(t *tuple.Tuple) {
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

// probeLocked finds matches for t among the stored rows (s.mu held),
// concatenates them (verifying every newly applicable predicate and enforcing
// the TimeStamp rule), and decides whether to bounce t back per the SteM
// BounceBack constraint. The matches and the bounce are appended to out.
func (s *SteM) probeLocked(t *tuple.Tuple, out []flow.Emission) []flow.Emission {
	scr := &s.scr
	s.stats.Probes++

	preds, ok := scr.predCache[t.Span]
	if !ok {
		preds = s.cfg.Q.JoinPredsConnecting(t.Span, s.cfg.Table)
		scr.predCache[t.Span] = preds
	}
	lookupInto(&scr.lk, t, s.cfg.Table, preds)
	probeTS := t.TS()
	lastMatch := t.LastMatchTS

	n := len(out)
	for _, e := range s.dict.Candidates(scr.lk) {
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
		s.stats.Matches++
		out = append(out, flow.Emit(cat))
	}

	t.LastProbeMatches = len(out) - n
	if s.shouldBounce(t) {
		t.PriorProber = true
		t.ProbeTable = s.cfg.Table
		// The highest timestamp this probe can have observed: every row a
		// re-probe may legally skip.
		t.LastMatchTS = s.dict.MaxTS()
		s.stats.ProbeBounces++
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
func (s *SteM) shouldBounce(t *tuple.Tuple) bool {
	if s.complete(t) {
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
func (s *SteM) complete(t *tuple.Tuple) bool {
	if s.shared != nil {
		return true // sealed shared state subsumes a full scan EOT
	}
	if s.cfg.Window > 0 {
		return false
	}
	if s.fullEOT {
		return true
	}
	for i := range s.eot {
		idx := &s.eot[i]
		bound, ok := s.bindCols(t, idx.cols)
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
// probe t via equality join predicates, into the reused scratch row; ok is
// false if any column is unbound. The returned row is only valid until the
// next bindCols call.
func (s *SteM) bindCols(t *tuple.Tuple, cols []int) (tuple.Row, bool) {
	scr := &s.scr
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
