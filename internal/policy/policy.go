// Package policy defines routing policies for the eddy.
//
// The eddy continuously routes tuples among modules "according to a routing
// policy" (Section 2.1.1). The router computes the constraint-legal moves
// for each tuple (Table 2) and the policy picks one; the correctness
// machinery is entirely outside the policy, so any policy in this package —
// and any user-supplied one — executes queries correctly.
package policy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/clock"
	"repro/internal/tuple"
)

// Kind classifies a candidate routing move.
type Kind uint8

const (
	// BuildSteM inserts a singleton into its table's SteM.
	BuildSteM Kind = iota
	// ProbeSteM looks a tuple up in the SteM of an unspanned table.
	ProbeSteM
	// ProbeAM sends a prior prober to an index access module on its probe
	// completion table.
	ProbeAM
	// Selection routes the tuple through a selection module.
	Selection
	// DropTuple removes the tuple from the dataflow. The router offers this
	// only when it is provably safe (the results the tuple could produce
	// will be regenerated by the scan side).
	DropTuple
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case BuildSteM:
		return "build"
	case ProbeSteM:
		return "probe-stem"
	case ProbeAM:
		return "probe-am"
	case Selection:
		return "select"
	case DropTuple:
		return "drop"
	default:
		return "?"
	}
}

// Candidate is one constraint-legal routing move for a tuple.
type Candidate struct {
	// Module is the destination module index (for DropTuple, the SteM of the
	// probe completion table, carried as context for scoring).
	Module int
	Kind   Kind
	// Table is the table the move concerns (build/probe target).
	Table int
	// PredID identifies the predicate for Selection moves.
	PredID int
}

// Env gives policies read access to engine state.
type Env interface {
	// Now returns the current virtual time.
	Now() clock.Time
	// Backlog estimates the queueing delay a tuple sent to the module now
	// would experience before service begins.
	Backlog(module int) clock.Duration
}

// Feedback reports the outcome of one module visit, for policy learning.
type Feedback struct {
	Module int
	Kind   Kind
	// Sig is the routed tuple's span bitmap: the paper optimizes its
	// benefit/cost ratio "at the granularity of the module and the
	// tuplestate of the tuple" (Section 4.1).
	Sig uint64
	// Outputs is the number of tuples the module emitted back, excluding the
	// input tuple bouncing back — the productive output of a probe.
	Outputs int
	// Emitted counts all emissions including the input's bounce-back. For a
	// selection module this is 1 when the tuple passed and 0 when it was
	// dropped, i.e. the per-visit selectivity signal.
	Emitted int
	// Cost is the service time charged.
	Cost clock.Duration
	// Now is the virtual time of completion.
	Now clock.Time
	// Visits is the number of module visits this feedback covers: engines
	// that process span-homogeneous batches report one Feedback whose
	// Outputs, Emitted, and Cost are batch totals, with Visits set to the
	// batch size so learners can normalize to per-visit values. 0 or 1
	// means a single visit.
	Visits int
}

// Policy chooses among candidate moves and learns from feedback.
// Implementations need not be safe for concurrent use; engines serialize
// calls.
type Policy interface {
	// Choose returns the index of the selected candidate. cands is never
	// empty. Batch routing calls it once per group of routing-equivalent
	// tuples (same span, done and built bits, prior-prober lineage and
	// visit counts) with a representative t and applies the choice to every
	// member, so scoring, ticket draws and exploration bookkeeping are paid
	// once per group instead of once per tuple.
	Choose(t *tuple.Tuple, cands []Candidate, env Env) int
	// Observe reports a completed module visit.
	Observe(fb Feedback)
}

// stat tracks exponentially weighted running averages of a module's
// per-visit outputs and cost, keyed by (module, span signature).
type stat struct {
	visits  uint64
	outEWMA float64
	cstEWMA float64 // seconds
}

const ewmaAlpha = 0.2

func (s *stat) observe(outputs int, cost clock.Duration) {
	s.observeF(float64(outputs), cost)
}

func (s *stat) observeF(outputs float64, cost clock.Duration) {
	s.visits++
	c := cost.Seconds()
	if s.visits == 1 {
		s.outEWMA, s.cstEWMA = outputs, c
		return
	}
	s.outEWMA = ewmaAlpha*outputs + (1-ewmaAlpha)*s.outEWMA
	s.cstEWMA = ewmaAlpha*c + (1-ewmaAlpha)*s.cstEWMA
}

// observeBatch folds n visits with identical per-visit values into the
// EWMAs in closed form: applying the α-mix n times with the same value v
// moves the average to v + (1-α)ⁿ·(old−v).
func (s *stat) observeBatch(outputs float64, cost clock.Duration, n int) {
	if n <= 1 {
		s.observeF(outputs, cost)
		return
	}
	c := cost.Seconds()
	if s.visits == 0 {
		s.visits = uint64(n)
		s.outEWMA, s.cstEWMA = outputs, c
		return
	}
	s.visits += uint64(n)
	f := math.Pow(1-ewmaAlpha, float64(n))
	s.outEWMA = outputs + f*(s.outEWMA-outputs)
	s.cstEWMA = c + f*(s.cstEWMA-c)
}

type statKey struct {
	module int
	sig    uint64
}

// statTable aggregates feedback for the learning policies.
type statTable struct {
	bySig    map[statKey]*stat
	byModule map[int]*stat
}

func newStatTable() *statTable {
	return &statTable{bySig: make(map[statKey]*stat), byModule: make(map[int]*stat)}
}

func (st *statTable) observe(fb Feedback) {
	// Selections learn from Emitted (their pass rate); probes from Outputs
	// (their productive match count).
	v := fb.Outputs
	if fb.Kind == Selection {
		v = fb.Emitted
	}
	// Batched feedback carries totals over Visits module visits; normalize
	// to per-visit values and weight the EWMA once per visit, so batch
	// size changes the confidence but not the magnitude of the estimate.
	n := fb.Visits
	if n < 1 {
		n = 1
	}
	per := float64(v) / float64(n)
	perCost := clock.Duration(int64(fb.Cost) / int64(n))
	k := statKey{fb.Module, fb.Sig}
	s := st.bySig[k]
	if s == nil {
		s = &stat{}
		st.bySig[k] = s
	}
	m := st.byModule[fb.Module]
	if m == nil {
		m = &stat{}
		st.byModule[fb.Module] = m
	}
	s.observeBatch(per, perCost, n)
	m.observeBatch(per, perCost, n)
}

// lookup prefers the (module, sig) stat, falling back to the module-wide
// stat, then nil.
func (st *statTable) lookup(module int, sig uint64) *stat {
	if s := st.bySig[statKey{module, sig}]; s != nil && s.visits > 0 {
		return s
	}
	return st.byModule[module]
}

// ModuleState is one learned estimate exposed by an Introspector: the EWMA
// per-visit output and cost a policy holds for a (module, tuple-signature)
// pair. Sig 0 with Visits > 0 may also denote the module-wide fallback
// aggregate, mirroring statTable's lookup order.
type ModuleState struct {
	Module      int     `json:"module"`
	Sig         uint64  `json:"sig"`
	Visits      uint64  `json:"visits"`
	OutPerVisit float64 `json:"out_per_visit"`
	CostSeconds float64 `json:"cost_seconds"`
}

// Introspector is optionally implemented by learning policies that can
// expose their internal estimates for observability (EXPLAIN traces, the
// completed-queries log). Snapshot is called on the engine's policy
// goroutine or after the run completes — the same serialization contract as
// Observe — so implementations need not add locking.
type Introspector interface {
	Snapshot() []ModuleState
}

// snapshot flattens the per-signature table, ordered by (module, sig) so
// output is deterministic.
func (st *statTable) snapshot() []ModuleState {
	out := make([]ModuleState, 0, len(st.bySig))
	for k, s := range st.bySig {
		out = append(out, ModuleState{
			Module:      k.module,
			Sig:         k.sig,
			Visits:      s.visits,
			OutPerVisit: s.outEWMA,
			CostSeconds: s.cstEWMA,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Module != out[b].Module {
			return out[a].Module < out[b].Module
		}
		return out[a].Sig < out[b].Sig
	})
	return out
}

// ByName constructs the named routing policy — "benefitcost" (also the
// empty string), "fixed", or "lottery" — seeding the randomized ones. It
// is the single name→policy mapping shared by the CLI flags and the query
// server's per-request overrides.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "", "benefitcost":
		return NewBenefitCost(seed), nil
	case "fixed":
		return NewFixed(), nil
	case "lottery":
		return NewLottery(seed), nil
	default:
		return nil, CheckName(name)
	}
}

// CheckName reports whether ByName knows name, without building a policy
// (a randomized one carries a 4.9 kB source).
func CheckName(name string) error {
	switch name {
	case "", "benefitcost", "fixed", "lottery":
		return nil
	}
	return fmt.Errorf("policy: unknown policy %q (want benefitcost, fixed, or lottery)", name)
}
