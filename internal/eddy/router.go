// Package eddy implements the eddy routing operator (Section 2.1.1) and the
// two engines that drive it: a deterministic discrete-event simulator and a
// concurrent channel-based engine.
//
// The eddy "continuously routes tuples among the rest of the modules
// according to a routing policy". The Router in this file owns the part the
// paper insists must not be left to the policy: the routing constraints of
// Table 2. For every tuple it computes the set of constraint-legal moves —
// BuildFirst, ProbeCompletion and BoundedRepetition are enforced here, while
// SteM BounceBack and TimeStamp live inside the SteM and AM implementations
// — and the pluggable policy merely picks among them.
package eddy

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/am"
	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/sm"
	"repro/internal/stem"
	"repro/internal/tuple"
)

const (
	// defaultMaxVisits caps routings of one tuple to one module
	// (BoundedRepetition); relaxedMaxVisits is the cap under the Section 3.5
	// BuildFirst relaxation, where a prober legitimately re-probes until the
	// scans complete.
	defaultMaxVisits = 3
	relaxedMaxVisits = 64
	// retryDelay paces the first relaxed-mode re-probe; later ones back off
	// exponentially from it.
	retryDelay = clock.Millisecond
)

// Profile holds the virtual service costs charged by each module class. The
// defaults approximate the paper's setting: main-memory hash operations are
// microseconds, remote index lookups (configured per source) are large.
type Profile struct {
	SteMBuildCost  clock.Duration
	SteMProbeCost  clock.Duration
	PerMatchCost   clock.Duration
	SMCost         clock.Duration
	AMDispatchCost clock.Duration
}

// DefaultProfile returns main-memory-scale costs.
func DefaultProfile() Profile {
	return Profile{
		SteMBuildCost:  5 * clock.Microsecond,
		SteMProbeCost:  5 * clock.Microsecond,
		PerMatchCost:   1 * clock.Microsecond,
		SMCost:         2 * clock.Microsecond,
		AMDispatchCost: 2 * clock.Microsecond,
	}
}

// Options configures a Router.
type Options struct {
	// Policy picks among legal moves; nil defaults to policy.NewFixed().
	Policy policy.Policy
	// Profile sets module service costs; the zero Profile is replaced by
	// DefaultProfile.
	Profile *Profile
	// SkipBuild enables the Section 3.5 relaxation of BuildFirst: singletons
	// from SkipBuildTable are never built into a SteM ("equivalent to
	// building a temporary index on only one side of the join") and that
	// SteM is never probed; the table's tuples act as pure probers,
	// re-probing the other SteMs — paced by retryDelay with exponential
	// backoff and guarded by LastMatchTimeStamp — until those SteMs are
	// complete. Legal only when SkipBuildTable has exactly one scan AM
	// (Table 2's BuildFirst condition) and every other table has a scan AM
	// (so re-probes provably complete).
	SkipBuild      bool
	SkipBuildTable int
	// ProbeBounce is passed to every SteM; see stem.ProbeBounceMode.
	ProbeBounce stem.ProbeBounceMode
	// Shards is ignored: only the frozen benchmark harness still sets it,
	// and it goes with ROADMAP item 1.
	Shards int
	// WindowFor optionally bounds SteM sizes per table (sliding windows);
	// nil means unbounded.
	WindowFor func(table int) int
	// SharedFor, when non-nil, supplies catalog-owned pre-built SteM state
	// per table. A table with shared state gets a probe-only attached SteM
	// over the sealed shared dictionaries (stem.Config.Shared) instead of a
	// private build — and none of its declared access methods are
	// instantiated: the state already holds the table's rows, so scanning or
	// index-probing it would only rebuild what is shared. At least one table
	// must remain unshared (its scans drive the dataflow), every shared
	// table's join columns must equal the state's key columns, and shared
	// tables take no window.
	SharedFor func(table int) *stem.SharedState
}

// Decision is the outcome of routing one tuple.
type Decision struct {
	// Output: the tuple spans all tables and passed all predicates.
	Output bool
	// Drop: the tuple is removed from the dataflow.
	Drop bool
	// Module is the destination module index when neither Output nor Drop.
	Module int
	// Kind is the move class, recorded so engines can attribute policy
	// feedback correctly (a SteM build and a SteM probe hit the same module
	// but must be learned apart).
	Kind policy.Kind
	// Delay postpones delivery to the module (used to pace relaxed-mode
	// re-probes).
	Delay clock.Duration
}

// amRef locates one access module.
type amRef struct {
	mod     int
	amIndex int
	kind    query.AMKind
}

// Router instantiates the query's modules (Section 2.2 steps 2–5) and routes
// tuples under the Table 2 constraints.
type Router struct {
	Q    *query.Q
	opts Options
	prof Profile
	pol  policy.Policy

	modules []flow.Module
	stemMod []int     // table -> module index
	amRefs  [][]amRef // table -> access modules
	smMod   []int     // predicate ID -> module index, -1 for joins

	stems []*stem.SteM
	ams   []*am.AM
	sms   []*sm.SM

	counter   *stem.Counter
	maxVisits uint16
	// scanRows is the source rows the scan AMs bring into a full run, or -1
	// when a module declares time (an index AM, or a paced scan): what
	// Concurrent reads to pick its driver.
	scanRows int

	// stuck counts tuples dropped because no legal move existed; correctness
	// tests assert it stays zero.
	stuck atomic.Uint64
	// routed counts routing decisions, for experiment reporting.
	routed atomic.Uint64

	// candScratch backs candidates(): routing is single-goroutine (the eddy
	// loop, or the simulator's event loop) and no policy retains the slice
	// past Choose, so one reused buffer serves every decision.
	candScratch []policy.Candidate
}

// NewRouter builds the module graph for a query.
func NewRouter(q *query.Q, opts Options) (*Router, error) {
	r := &Router{Q: q, opts: opts, counter: &stem.Counter{}}
	if opts.Policy != nil {
		r.pol = opts.Policy
	} else {
		r.pol = policy.NewFixed()
	}
	if opts.Profile != nil {
		r.prof = *opts.Profile
	} else {
		r.prof = DefaultProfile()
	}
	r.maxVisits = defaultMaxVisits
	if opts.SkipBuild {
		r.maxVisits = relaxedMaxVisits
		st := opts.SkipBuildTable
		if st < 0 || st >= q.NumTables() {
			return nil, fmt.Errorf("eddy: SkipBuildTable %d out of range", st)
		}
		if ams := q.AMsOn(st); len(ams) != 1 || q.AMs[ams[0]].Kind != query.Scan {
			return nil, fmt.Errorf("eddy: SkipBuild requires table %s to have exactly one scan AM (Table 2 BuildFirst condition)", q.Tables[st].Name)
		}
		for t := 0; t < q.NumTables(); t++ {
			if t != st && !q.HasScanAM(t) {
				return nil, fmt.Errorf("eddy: SkipBuild requires every other table to have a scan AM; %s has none", q.Tables[t].Name)
			}
		}
	}

	n := q.NumTables()
	r.stemMod = make([]int, n)
	r.amRefs = make([][]amRef, n)

	// Shared attachments: validate before instantiating anything.
	sharedFor := func(t int) *stem.SharedState {
		if opts.SharedFor == nil {
			return nil
		}
		return opts.SharedFor(t)
	}
	if opts.SharedFor != nil {
		unshared := 0
		for t := 0; t < n; t++ {
			ss := sharedFor(t)
			if ss == nil {
				unshared++
				continue
			}
			if opts.SkipBuild {
				return nil, fmt.Errorf("eddy: SkipBuild cannot combine with shared SteM attachments")
			}
			if opts.WindowFor != nil && opts.WindowFor(t) > 0 {
				return nil, fmt.Errorf("eddy: table %s attaches shared state and cannot be windowed", q.Tables[t].Name)
			}
			if !slices.Equal(stem.JoinCols(q, t), ss.KeyCols()) {
				return nil, fmt.Errorf("eddy: table %s joins on %v but its shared state indexes %v",
					q.Tables[t].Name, stem.JoinCols(q, t), ss.KeyCols())
			}
		}
		if unshared == 0 {
			return nil, fmt.Errorf("eddy: shared SteM attachments require at least one unshared table to drive the dataflow")
		}
	}

	// Step 4: a SteM on each base table.
	for t := 0; t < n; t++ {
		cfg := stem.Config{
			Table:        t,
			Q:            q,
			TS:           r.counter,
			BuildCost:    r.prof.SteMBuildCost,
			ProbeCost:    r.prof.SteMProbeCost,
			PerMatchCost: r.prof.PerMatchCost,
			ProbeBounce:  opts.ProbeBounce,
		}
		if opts.WindowFor != nil {
			cfg.Window = opts.WindowFor(t)
		}
		if ss := sharedFor(t); ss != nil {
			cfg.Shared = ss
		}
		s := stem.New(cfg)
		r.stemMod[t] = len(r.modules)
		r.modules = append(r.modules, s)
		r.stems = append(r.stems, s)
	}

	// Step 2: an AM on each declared access method. Tables attached to
	// shared state skip theirs: the sealed state already holds every row,
	// and with no access modules the table produces no singletons, no EOTs,
	// and no builds — its SteM is probe-only.
	for ai := range q.AMs {
		if sharedFor(q.AMs[ai].Table) != nil {
			continue
		}
		a, err := am.New(am.Config{Q: q, AMIndex: ai, DispatchCost: r.prof.AMDispatchCost})
		if err != nil {
			return nil, err
		}
		t := q.AMs[ai].Table
		switch decl := q.AMs[ai]; {
		case r.scanRows < 0:
		case decl.Kind == query.Scan && decl.ScanSpec.Unpaced():
			r.scanRows += len(decl.Data.Rows)
		default:
			r.scanRows = -1
		}
		r.amRefs[t] = append(r.amRefs[t], amRef{mod: len(r.modules), amIndex: ai, kind: q.AMs[ai].Kind})
		r.modules = append(r.modules, a)
		r.ams = append(r.ams, a)
	}

	// Step 3: an SM on each selection predicate (joins are verified inside
	// SteMs and AMs).
	r.smMod = make([]int, len(q.Preds))
	for i := range r.smMod {
		r.smMod[i] = -1
	}
	for _, p := range q.Preds {
		if p.IsJoin() {
			continue
		}
		m := sm.New(p, r.prof.SMCost)
		r.smMod[p.ID] = len(r.modules)
		r.modules = append(r.modules, m)
		r.sms = append(r.sms, m)
	}
	return r, nil
}

// Modules returns the module list; indexes are stable module IDs.
func (r *Router) Modules() []flow.Module { return r.modules }

// SteMs returns the instantiated State Modules in table order.
func (r *Router) SteMs() []*stem.SteM { return r.stems }

// AMs returns the instantiated access modules in declaration order.
func (r *Router) AMs() []*am.AM { return r.ams }

// SMs returns the instantiated selection modules.
func (r *Router) SMs() []*sm.SM { return r.sms }

// Policy returns the router's policy.
func (r *Router) Policy() policy.Policy { return r.pol }

// Stuck returns the number of tuples dropped for lack of a legal move; it
// must be zero for a well-formed query.
func (r *Router) Stuck() uint64 { return r.stuck.Load() }

// Routed returns the number of routing decisions made.
func (r *Router) Routed() uint64 { return r.routed.Load() }

// Reset returns the router and every module it instantiated to their
// just-constructed state, so a pooled router+engine shell can run the same
// query again without rebuilding the module graph: SteM stores empty, AM
// dedup caches and stats cleared, and the build timestamp counter restarted.
// A non-nil pol replaces the routing policy — policies learn per run, so
// pooled reuse installs a fresh one rather than leak routing statistics
// between executions. Must not be called while a run is in progress.
func (r *Router) Reset(pol policy.Policy) {
	if pol != nil {
		r.pol = pol
	}
	r.counter.Reset()
	for _, s := range r.stems {
		s.Reset()
	}
	for _, a := range r.ams {
		a.Reset()
	}
	r.stuck.Store(0)
	r.routed.Store(0)
}

// Seeds returns the seed tuples that initialize every scan AM (step 5).
func (r *Router) Seeds() []*tuple.Tuple {
	n := r.Q.NumTables()
	var out []*tuple.Tuple
	for t := 0; t < n; t++ {
		for _, ref := range r.amRefs[t] {
			if ref.kind == query.Scan {
				out = append(out, tuple.NewSeed(n, ref.mod))
			}
		}
	}
	return out
}

// Route decides the fate of one tuple returned to the eddy.
func (r *Router) Route(t *tuple.Tuple, env policy.Env) Decision {
	r.routed.Add(1)
	return r.decide(t, env)
}

// decide is Route's decision for t, without the routing count.
func (r *Router) decide(t *tuple.Tuple, env policy.Env) Decision {
	if d, ok := r.routeFast(t); ok {
		return d
	}
	cands := r.candidates(t)
	if len(cands) == 0 {
		return r.noCandidates(t)
	}
	choice := r.pol.Choose(t, cands, env)
	if choice < 0 || choice >= len(cands) {
		choice = 0
	}
	return r.applyChoice(t, cands[choice])
}

// RouteCol decides the fate of a columnar batch as one unit. The batch's
// routing header is uniform by construction — every row has routed together
// its whole life, and the columnar module paths preserve that (SteMs split
// bounced batches rather than let HasMatches diverge) — so every row would
// get Route's decision: one constraint computation, one policy choice, one
// shared visit increment, with no representative materialization beyond a
// stack tuple carrying the header fields the constraints and policies read.
func (r *Router) RouteCol(cb *flow.ColBatch, env policy.Env) Decision {
	n := cb.Rows()
	r.routed.Add(uint64(n))
	rep := tuple.Tuple{
		Span:        cb.Span,
		Done:        cb.Done,
		Built:       cb.Built,
		PriorProber: cb.PriorProber,
		ProbeTable:  cb.ProbeTable,
		AMProbed:    cb.AMProbed,
		LastMatchTS: cb.LastMatchTS,
	}
	if len(cb.Visits) > 0 {
		// Pooled batches keep an empty non-nil Visits slice; visit() treats
		// nil as the lazily-sized zero vector.
		rep.Visits = cb.Visits
	}
	if cb.HasMatches {
		rep.LastProbeMatches = 1
	}
	d := r.decide(&rep, env)
	if rep.Visits != nil {
		cb.Visits = rep.Visits // visit() may have lazily allocated the vector
	}
	return d
}

// routeFast resolves the moves Table 2 forces outright, before any policy
// involvement; ok is false when the tuple needs a candidate computation.
func (r *Router) routeFast(t *tuple.Tuple) (Decision, bool) {
	// Seeds go straight to their scan AM.
	if t.Seed {
		return Decision{Module: t.SeedAM, Kind: policy.ProbeAM}, true
	}
	// EOT tuples are routed as build tuples to their table's SteM; after
	// that they leave the dataflow.
	if t.EOT != nil {
		if r.visit(t, r.stemMod[t.EOT.Table]) {
			return Decision{Module: r.stemMod[t.EOT.Table], Kind: policy.BuildSteM}, true
		}
		return Decision{Drop: true}, true
	}
	// BuildFirst outranks output: a single-table query with competitive AMs
	// relies on the build's set-semantics dedup ("because of the BuildFirst
	// constraint, such duplicates can be easily removed when they build into
	// the SteM on the source itself", Section 3.2). Only the designated
	// skip-build table is exempt.
	if t.IsSingleton() && !t.Built.Has(t.SingleTable()) && !t.PriorProber && !r.skips(t.SingleTable()) {
		mod := r.stemMod[t.SingleTable()]
		if r.visit(t, mod) {
			return Decision{Module: mod, Kind: policy.BuildSteM}, true
		}
		return Decision{Drop: true}, true
	}
	// "A tuple is removed from the eddy's dataflow and sent to the output if
	// it spans all base tables and is verified to pass all predicates."
	if t.Span == r.Q.AllTables() && t.Done == r.Q.AllPreds() {
		return Decision{Output: true}, true
	}
	// A prior prober that has probed its completion AM has served its
	// purpose: the AM's matches regenerate its results.
	if t.PriorProber && t.AMProbed {
		return Decision{Drop: true}, true
	}
	return Decision{}, false
}

// noCandidates decides the fate of a tuple with no constraint-legal move.
func (r *Router) noCandidates(t *tuple.Tuple) Decision {
	if t.PriorProber && r.safeDrop(t) {
		return Decision{Drop: true}
	}
	// In skip-build mode, tuples not spanning the skip table are pure
	// state: once built (and through their selections) they leave the
	// dataflow; every result is generated by a skip-side prober.
	if r.opts.SkipBuild && !t.Span.Has(r.opts.SkipBuildTable) {
		return Decision{Drop: true}
	}
	// No legal move: should be unreachable for validated queries.
	r.stuck.Add(1)
	return Decision{Drop: true}
}

// applyChoice turns the selected candidate into a Decision for one tuple,
// applying the per-tuple BoundedRepetition bookkeeping.
func (r *Router) applyChoice(t *tuple.Tuple, c policy.Candidate) Decision {
	if c.Kind == policy.DropTuple {
		return Decision{Drop: true}
	}
	if !r.visit(t, c.Module) {
		// BoundedRepetition exhausted; fall back to dropping if safe.
		if t.PriorProber && r.safeDrop(t) {
			return Decision{Drop: true}
		}
		r.stuck.Add(1)
		return Decision{Drop: true}
	}
	d := Decision{Module: c.Module, Kind: c.Kind}
	if c.Kind == policy.ProbeSteM && t.PriorProber {
		// Pace relaxed-mode re-probes with exponential backoff so the visit
		// budget comfortably outlasts the scans feeding the SteM.
		shift := uint(t.Visits[c.Module]) - 1
		if shift > 16 {
			shift = 16
		}
		d.Delay = retryDelay << shift
	}
	return d
}

// candidates computes the constraint-legal moves for a tuple. The returned
// slice is scratch, valid until the next candidates call.
func (r *Router) candidates(t *tuple.Tuple) []policy.Candidate {
	q := r.Q
	cs := r.candScratch[:0]

	// BuildFirst is enforced by Route before this point; singletons reaching
	// here are either built or from the designated skip-build table.

	// ProbeCompletion: a prior prober may only re-probe the SteM on its
	// probe completion table or probe that table's AMs; it must stay in the
	// dataflow until it has probed a completion AM (or dropping is safe).
	if t.PriorProber {
		pt := t.ProbeTable
		// An AM probe is only useful if every component of the prober is
		// cached: the returning matches find their join partners by probing
		// the prober's SteMs — the "rendezvous buffer" of Section 3.3. A
		// tuple with unbuilt components (relaxed BuildFirst) must instead
		// keep re-probing the SteM until the scan completes it.
		if t.Built.Contains(t.Span) {
			for _, ref := range r.amRefs[pt] {
				if ref.kind != query.Index {
					continue
				}
				if !q.CanBindIndexAM(t.Span, ref.amIndex) || !r.canVisit(t, ref.mod) {
					continue
				}
				cs = append(cs, policy.Candidate{Module: ref.mod, Kind: policy.ProbeAM, Table: pt})
			}
		}
		if r.opts.SkipBuild && t.Span.Has(r.opts.SkipBuildTable) && r.canVisit(t, r.stemMod[pt]) {
			cs = append(cs, policy.Candidate{Module: r.stemMod[pt], Kind: policy.ProbeSteM, Table: pt})
		}
		if r.safeDrop(t) {
			cs = append(cs, policy.Candidate{Module: r.stemMod[pt], Kind: policy.DropTuple, Table: pt})
		}
		r.candScratch = cs
		return cs
	}

	// Selections not yet passed.
	for _, p := range q.Preds {
		if p.IsJoin() || t.Done.Has(p.ID) || !p.ApplicableTo(t.Span) {
			continue
		}
		mod := r.smMod[p.ID]
		if mod >= 0 && r.canVisit(t, mod) {
			cs = append(cs, policy.Candidate{Module: mod, Kind: policy.Selection, Table: p.Left.Table, PredID: p.ID})
		}
	}

	// SteM probes into connected, unspanned tables. In skip-build mode only
	// tuples spanning the skip table probe at all (they are the sole result
	// generators), and nothing ever probes the skip table's empty SteM.
	if r.opts.SkipBuild && !t.Span.Has(r.opts.SkipBuildTable) {
		r.candScratch = cs
		return cs
	}
	for x := 0; x < q.NumTables(); x++ {
		if t.Span.Has(x) {
			continue
		}
		if r.opts.SkipBuild && x == r.opts.SkipBuildTable {
			continue
		}
		if !q.Connects(t.Span, x) {
			continue
		}
		if !r.canVisit(t, r.stemMod[x]) {
			continue
		}
		// If x has no scan AM, a bounced probe must be able to bind an
		// index AM on x; otherwise probing x now is a dead end.
		if !q.HasScanAM(x) && !r.anyBindableIndexAM(t, x) {
			continue
		}
		cs = append(cs, policy.Candidate{Module: r.stemMod[x], Kind: policy.ProbeSteM, Table: x})
	}
	r.candScratch = cs
	return cs
}

func (r *Router) anyBindableIndexAM(t *tuple.Tuple, x int) bool {
	for _, ref := range r.amRefs[x] {
		if ref.kind == query.Index && r.Q.CanBindIndexAM(t.Span, ref.amIndex) {
			return true
		}
	}
	return false
}

// skips reports whether table tab is the designated skip-build table.
func (r *Router) skips(tab int) bool {
	return r.opts.SkipBuild && r.opts.SkipBuildTable == tab
}

// safeDrop reports whether removing a prior prober loses no results: either
// it has probed a completion AM (its matches are in flight), or its probe
// completion table has a scan AM and every component of the tuple is cached
// in the other SteMs, so the scan side regenerates everything.
func (r *Router) safeDrop(t *tuple.Tuple) bool {
	if t.AMProbed {
		return true
	}
	pt := t.ProbeTable
	if r.opts.WindowFor != nil && r.opts.WindowFor(pt) > 0 {
		// Windowed semantics: joins against evicted (out-of-window) rows are
		// intentionally not produced, so the prober may always be dropped.
		return true
	}
	if !r.Q.HasScanAM(pt) || !t.Built.Contains(t.Span) {
		return false
	}
	return true
}

// canVisit reports whether BoundedRepetition still permits routing t to mod.
func (r *Router) canVisit(t *tuple.Tuple, mod int) bool {
	if t.Visits == nil {
		return true
	}
	return t.Visits[mod] < r.maxVisits
}

// visit counts a routing of t to mod, returning false if the bound is hit.
func (r *Router) visit(t *tuple.Tuple, mod int) bool {
	if t.Visits == nil {
		t.Visits = make([]uint16, len(r.modules))
	}
	if t.Visits[mod] >= r.maxVisits {
		return false
	}
	t.Visits[mod]++
	return true
}

// String describes the instantiated module graph.
func (r *Router) String() string {
	s := fmt.Sprintf("eddy over %d modules:", len(r.modules))
	for i, m := range r.modules {
		s += fmt.Sprintf(" [%d]%s", i, m.Name())
	}
	return s
}
