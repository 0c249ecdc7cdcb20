// benefitcost.go implements the routing policy of Section 4.1: "the eddy
// continually routes so as to maximize B(t,m)/T(t,m)" — the expected benefit
// of sending tuple t to module m over the expected time m takes to process
// it — estimated "at the granularity of the module and the tuplestate".
//
// The interesting decision is what to do with a probe tuple bounced back by
// a SteM on a table that has both scan and index access methods (query Q4,
// Section 4.3): probing the index AM yields the match after the lookup
// latency plus the AM's queue backlog, while dropping the tuple lets the
// scan deliver the match later for free. Early in the query the scan has
// covered little of the table, so the index wins; as the SteM's observed
// probe hit rate rises, the expected wait for the scan shrinks and dropping
// wins. A small exploration fraction keeps probing the index throughout,
// exactly as the paper describes ("the eddy keeps sending a small fraction
// of the R tuples to probe into the T index throughout the processing to
// explore alternative approaches").
package policy

import (
	"math/rand"

	"repro/internal/clock"
	"repro/internal/tuple"
)

// BenefitCost is the Section 4.1 online policy.
type BenefitCost struct {
	stats *statTable
	rng   *rand.Rand
	// Explore is the fraction of decisions made uniformly at random.
	Explore float64
	// hit tracks, per SteM module, the EWMA probability that a probe found
	// at least one match — a proxy for scan progress on that table.
	hit map[int]*stat
}

// NewBenefitCost returns the online benefit/cost policy with the given seed.
func NewBenefitCost(seed int64) *BenefitCost {
	return &BenefitCost{
		stats:   newStatTable(),
		rng:     rand.New(rand.NewSource(seed)),
		Explore: 0.05,
		hit:     make(map[int]*stat),
	}
}

// Choose implements Policy.
func (p *BenefitCost) Choose(t *tuple.Tuple, cands []Candidate, env Env) int {
	if len(cands) == 1 {
		return 0
	}
	if p.rng.Float64() < p.Explore {
		return p.rng.Intn(len(cands))
	}
	best, bestScore := 0, p.score(t, cands[0], env)
	for i := 1; i < len(cands); i++ {
		if s := p.score(t, cands[i], env); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// score computes B/T for one candidate, in results per second.
func (p *BenefitCost) score(t *tuple.Tuple, c Candidate, env Env) float64 {
	sig := uint64(t.Span)
	switch c.Kind {
	case BuildSteM:
		// Builds are mandatory prerequisites; do them immediately.
		return 1e12
	case Selection:
		s := p.stats.lookup(c.Module, sig)
		if s == nil || s.visits == 0 {
			return 1e6 // optimistic: calibrate unknown selections early
		}
		cost := maxf(s.cstEWMA, 1e-9)
		return (1 - clamp01(s.outEWMA)) / cost
	case ProbeSteM:
		s := p.stats.lookup(c.Module, sig)
		if s == nil || s.visits == 0 {
			return 1e6 // optimistic: calibrate unknown SteMs early
		}
		cost := maxf(s.cstEWMA+env.Backlog(c.Module).Seconds(), 1e-9)
		return maxf(s.outEWMA, 0.05) / cost
	case ProbeAM:
		// If the last SteM probe already found matches, the index would
		// only return duplicates (set semantics will discard them): the
		// probe is worthless.
		if t.LastProbeMatches > 0 {
			return 0
		}
		s := p.stats.lookup(c.Module, sig)
		lat := env.Backlog(c.Module).Seconds()
		if s != nil && s.visits > 0 {
			lat += s.cstEWMA
		}
		return 1 / maxf(lat, 1e-9)
	case DropTuple:
		if t.LastProbeMatches > 0 {
			return 1e9 // match already in hand: dropping is free and right
		}
		// Expected wait for the scan to deliver the match: with observed
		// probe hit rate h ≈ scanned fraction and elapsed time now, the
		// remaining scan time is ≈ now·(1-h)/h and the match is uniform in
		// it, so D ≈ now·(1-h)/(2h). Score = 1/D.
		h := 0.02
		if s := p.hit[c.Module]; s != nil && s.visits > 0 {
			h = clamp01(maxf(s.outEWMA, 0.02))
		}
		now := maxf(env.Now().Seconds(), 1e-6)
		d := now * (1 - h) / (2 * h)
		return 1 / maxf(d, 1e-9)
	default:
		return 0
	}
}

// Observe implements Policy, additionally maintaining per-SteM hit rates.
func (p *BenefitCost) Observe(fb Feedback) {
	p.stats.observe(fb)
	if fb.Kind == ProbeSteM {
		s := p.hit[fb.Module]
		if s == nil {
			s = &stat{}
			p.hit[fb.Module] = s
		}
		hit := 0
		if fb.Outputs > 0 {
			hit = 1
		}
		s.observe(hit, clock.Duration(0))
	}
}

// Snapshot implements Introspector, exposing the learned per-(module, sig)
// benefit/cost estimates.
func (p *BenefitCost) Snapshot() []ModuleState { return p.stats.snapshot() }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
