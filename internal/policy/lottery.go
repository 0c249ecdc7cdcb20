// lottery.go implements ticket-based lottery routing, the adaptive policy of
// the original eddies paper [2]: each module holds tickets proportional to
// its observed productivity, and the eddy picks a destination by weighted
// random draw. Randomness is seeded, so runs are reproducible.
package policy

import (
	"math/rand"

	"repro/internal/tuple"
)

// Lottery is a ticket-based adaptive policy.
type Lottery struct {
	stats *statTable
	rng   *rand.Rand
	// explore is the probability of a uniform random choice, keeping every
	// module calibrated.
	explore float64
}

// NewLottery returns a lottery policy with the given seed.
func NewLottery(seed int64) *Lottery {
	return &Lottery{stats: newStatTable(), rng: rand.New(rand.NewSource(seed)), explore: 0.1}
}

// Choose implements Policy. Builds always win (BuildFirst makes them the
// sole candidate anyway under the default router); other moves draw tickets
// equal to their observed output-per-cost ratio.
func (l *Lottery) Choose(t *tuple.Tuple, cands []Candidate, env Env) int {
	if len(cands) == 1 {
		return 0
	}
	if l.rng.Float64() < l.explore {
		return l.rng.Intn(len(cands))
	}
	weights := make([]float64, len(cands))
	total := 0.0
	for i, c := range cands {
		weights[i] = l.tickets(c, uint64(t.Span))
		total += weights[i]
	}
	if total <= 0 {
		return l.rng.Intn(len(cands))
	}
	draw := l.rng.Float64() * total
	for i, w := range weights {
		draw -= w
		if draw <= 0 {
			return i
		}
	}
	return len(cands) - 1
}

// tickets computes a candidate's ticket count from observed feedback.
func (l *Lottery) tickets(c Candidate, sig uint64) float64 {
	const base = 1.0 // optimism for unvisited modules
	switch c.Kind {
	case BuildSteM:
		return 1000 // builds are cheap and mandatory-ish: strongly favoured
	case DropTuple:
		return 0.1 // dropping earns no output; kept barely alive
	}
	s := l.stats.lookup(c.Module, sig)
	if s == nil || s.visits == 0 {
		return base
	}
	cost := s.cstEWMA
	if cost <= 0 {
		cost = 1e-9
	}
	switch c.Kind {
	case Selection:
		// Low-selectivity selections are productive: they discard tuples
		// early. Ticket ∝ (1 - selectivity) / cost.
		return 0.01 + (1-clamp01(s.outEWMA))/cost
	default:
		return 0.01 + s.outEWMA/cost
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Observe implements Policy.
func (l *Lottery) Observe(fb Feedback) { l.stats.observe(fb) }

// Snapshot implements Introspector, exposing the learned ticket estimates.
func (l *Lottery) Snapshot() []ModuleState { return l.stats.snapshot() }
