// fixed.go implements the deterministic baseline policy: a static priority
// order corresponding to the canonical n-ary symmetric hash join routing of
// Section 2.3 — build first, then selections, then probes in table order.
// With this policy the eddy performs no adaptation, which makes it the
// control arm in experiments and the reference executor in correctness
// tests.
package policy

import (
	"repro/internal/tuple"
)

// Fixed is a non-adaptive priority policy.
type Fixed struct{}

// NewFixed returns the deterministic baseline policy.
func NewFixed() *Fixed { return &Fixed{} }

// Choose implements Policy: BuildSteM > Selection (by predicate ID) >
// ProbeSteM (by table) > ProbeAM (by module) > DropTuple.
func (f *Fixed) Choose(t *tuple.Tuple, cands []Candidate, env Env) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if fixedLess(cands[i], cands[best]) {
			best = i
		}
	}
	return best
}

func fixedLess(a, b Candidate) bool {
	ra, rb := fixedRank(a.Kind), fixedRank(b.Kind)
	if ra != rb {
		return ra < rb
	}
	switch a.Kind {
	case Selection:
		return a.PredID < b.PredID
	case ProbeSteM, BuildSteM:
		return a.Table < b.Table
	default:
		return a.Module < b.Module
	}
}

func fixedRank(k Kind) int {
	switch k {
	case BuildSteM:
		return 0
	case Selection:
		return 1
	case ProbeSteM:
		return 2
	case ProbeAM:
		return 3
	case DropTuple:
		return 4
	default:
		return 5
	}
}

// Observe implements Policy; Fixed learns nothing.
func (f *Fixed) Observe(Feedback) {}
