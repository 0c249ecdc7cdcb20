// random.go implements a uniformly random routing policy. It exists as the
// ablation floor: the paper argues "even a simple routing policy allows
// significant flexibility in adaptation", and the correctness theorems must
// hold for any policy at all — including one that learns nothing and picks
// moves at random. The property tests exercise it, and benchmarks use it to
// bound what the learned policies are worth.
package policy

import (
	"math/rand"

	"repro/internal/tuple"
)

// Random picks uniformly among candidates (with seeded, reproducible
// randomness).
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a uniformly random policy.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Choose implements Policy.
func (p *Random) Choose(t *tuple.Tuple, cands []Candidate, env Env) int {
	return p.rng.Intn(len(cands))
}

// Observe implements Policy; Random learns nothing.
func (p *Random) Observe(Feedback) {}
