// Package sm implements Selection Modules (Section 2.1.2): "When a selection
// module receives an input tuple t, it returns t to the eddy if t passes the
// selection predicate, and removes it from the dataflow otherwise. To track
// the progress made by t, if t passes the predicate, the SM marks this fact
// in t's TupleState."
package sm

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/tuple"
)

// SM is a selection module over one selection predicate.
type SM struct {
	p    pred.P
	cost clock.Duration
	name string
}

// New builds a selection module. The predicate must be a selection.
func New(p pred.P, cost clock.Duration) *SM {
	if p.IsJoin() {
		panic(fmt.Sprintf("sm: join predicate %s given to a selection module", p))
	}
	return &SM{p: p, cost: cost, name: fmt.Sprintf("SM(%s)", p)}
}

// Name implements flow.Module.
func (s *SM) Name() string { return s.name }

// Parallel implements flow.Module.
func (s *SM) Parallel() int { return 1 }

// Pred returns the module's predicate.
func (s *SM) Pred() pred.P { return s.p }

// Process implements flow.Module.
func (s *SM) Process(t *tuple.Tuple, now clock.Time) ([]flow.Emission, clock.Duration) {
	if !s.p.Eval(t) {
		return nil, s.cost // fails: removed from the dataflow
	}
	t.Done = t.Done.With(s.p.ID)
	return []flow.Emission{flow.Emit(t)}, s.cost
}

// ProcessBatch implements flow.BatchModule: the predicate is evaluated over
// the whole batch into one emission slice — allocated on the first passing
// tuple, so a fully-filtered batch allocates nothing.
func (s *SM) ProcessBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, clock.Duration) {
	var out []flow.Emission
	for _, t := range b.Tuples {
		if !s.p.Eval(t) {
			continue // fails: removed from the dataflow
		}
		t.Done = t.Done.With(s.p.ID)
		if out == nil {
			out = make([]flow.Emission, 0, b.Len())
		}
		out = append(out, flow.Emit(t))
	}
	return out, clock.Duration(b.Len()) * s.cost
}

// ProcessColBatch implements flow.ColModule: a columnar batch is filtered in
// place by the vectorized predicate kernel — failing rows drop out of the
// selection vector, no tuple is materialized, no storage moves — and the
// batch itself bounces back with the predicate's done bit set. Row batches
// fall through to ProcessBatch.
func (s *SM) ProcessColBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, []flow.ColEmission, clock.Duration) {
	cb := b.Col
	if cb == nil {
		out, cost := s.ProcessBatch(b, now)
		return out, nil, cost
	}
	in := cb.Rows()
	live := pred.FilterColConst(cb, s.p)
	cost := clock.Duration(in) * s.cost
	if live == 0 {
		return nil, nil, cost // every row failed: batch removed from the dataflow
	}
	cb.Done = cb.Done.With(s.p.ID)
	return nil, []flow.ColEmission{{B: cb}}, cost
}
