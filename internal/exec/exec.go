// Package exec implements the two baseline query architectures of Figure 1:
//
//   - Static (Figure 1a): a traditional, statically chosen query plan — scan
//     AMs feeding a fixed pipeline of encapsulated join operators.
//   - JoinEddy (Figure 1b): the architecture of the original eddies paper
//     [2] — the same fixed join tree, but with selections broken out into
//     modules and an eddy adaptively ordering each tuple's visits.
//
// Both run on the eddy package's engines via the Routing interface, so the
// experiment harness compares all three architectures under identical
// source and cost models.
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/am"
	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/join"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/sm"
	"repro/internal/tuple"
)

// Config assembles a baseline executor.
type Config struct {
	Q *query.Q
	// Stages are the join operators in pipeline order.
	Stages []join.Stage
	// Policy is used by JoinEddy to order selections; nil means fixed.
	Policy policy.Policy
	// Profile provides module costs; nil means eddy.DefaultProfile.
	Profile *eddy.Profile
	// AdaptiveSelections breaks selections into SM modules (JoinEddy mode);
	// otherwise selections are pushed into the scan AMs (Static mode).
	AdaptiveSelections bool
}

// Baseline routes tuples through scan AMs and a fixed join pipeline.
type Baseline struct {
	q      *query.Q
	stages []join.Stage
	pol    policy.Policy

	modules  []flow.Module
	amMods   []int // module index per scan AM
	stageMod []int // module index per stage
	smMod    []int // module index per predicate (-1 when none)

	stuck atomic.Uint64
}

// New builds a baseline executor. Only scan AMs are instantiated: index
// access paths live inside IndexJoin stages, exactly as in a traditional
// plan.
func New(cfg Config) (*Baseline, error) {
	b := &Baseline{q: cfg.Q, stages: cfg.Stages}
	if cfg.Policy != nil {
		b.pol = cfg.Policy
	} else {
		b.pol = policy.NewFixed()
	}
	prof := eddy.DefaultProfile()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	for ai, decl := range cfg.Q.AMs {
		if decl.Kind != query.Scan {
			continue // index paths are encapsulated in IndexJoin stages
		}
		a, err := am.New(am.Config{
			Q:               cfg.Q,
			AMIndex:         ai,
			DispatchCost:    prof.AMDispatchCost,
			ApplySelections: !cfg.AdaptiveSelections,
		})
		if err != nil {
			return nil, err
		}
		b.amMods = append(b.amMods, len(b.modules))
		b.modules = append(b.modules, a)
	}
	for _, st := range cfg.Stages {
		b.stageMod = append(b.stageMod, len(b.modules))
		b.modules = append(b.modules, st)
	}
	b.smMod = make([]int, len(cfg.Q.Preds))
	for i := range b.smMod {
		b.smMod[i] = -1
	}
	if cfg.AdaptiveSelections {
		for _, p := range cfg.Q.Preds {
			if p.IsJoin() {
				continue
			}
			m := sm.New(p, prof.SMCost)
			b.smMod[p.ID] = len(b.modules)
			b.modules = append(b.modules, m)
		}
	}
	return b, nil
}

// Modules implements eddy.Routing.
func (b *Baseline) Modules() []flow.Module { return b.modules }

// Policy implements eddy.Routing.
func (b *Baseline) Policy() policy.Policy { return b.pol }

// Stuck returns the number of tuples dropped with no applicable stage other
// than scan EOTs (which baselines discard by design).
func (b *Baseline) Stuck() uint64 { return b.stuck.Load() }

// Seeds implements eddy.Routing.
func (b *Baseline) Seeds() []*tuple.Tuple {
	n := b.q.NumTables()
	var out []*tuple.Tuple
	for _, mod := range b.amMods {
		out = append(out, tuple.NewSeed(n, mod))
	}
	return out
}

// Route implements eddy.Routing.
func (b *Baseline) Route(t *tuple.Tuple, env policy.Env) eddy.Decision {
	if t.Seed {
		return eddy.Decision{Module: t.SeedAM, Kind: policy.ProbeAM}
	}
	if t.EOT != nil {
		return eddy.Decision{Drop: true} // no SteMs to store completeness in
	}
	if t.Span == b.q.AllTables() && t.Done == b.q.AllPreds() {
		return eddy.Decision{Output: true}
	}

	var cands []policy.Candidate
	for _, p := range b.q.Preds {
		if p.IsJoin() || t.Done.Has(p.ID) || !p.ApplicableTo(t.Span) {
			continue
		}
		if mod := b.smMod[p.ID]; mod >= 0 {
			cands = append(cands, policy.Candidate{Module: mod, Kind: policy.Selection, PredID: p.ID, Table: p.Left.Table})
		}
	}
	for i, st := range b.stages {
		if st.Accepts(t) {
			cands = append(cands, policy.Candidate{Module: b.stageMod[i], Kind: policy.ProbeSteM, Table: i})
			break // fixed pipeline: the first accepting stage is the plan's choice
		}
	}
	if len(cands) == 0 {
		b.stuck.Add(1)
		return eddy.Decision{Drop: true}
	}
	choice := b.pol.Choose(t, cands, env)
	if choice < 0 || choice >= len(cands) {
		choice = 0
	}
	c := cands[choice]
	return eddy.Decision{Module: c.Module, Kind: c.Kind}
}

// LeftDeepSHJ builds the stages of a left-deep pipelined binary SHJ tree
// over the given table order (Figure 2(i)): join i combines the accumulated
// span of order[0..i] with order[i+1] on an equality predicate from the
// query. All costs come from prof.
func LeftDeepSHJ(q *query.Q, order []int, prof eddy.Profile) ([]join.Stage, error) {
	if len(order) != q.NumTables() || len(order) < 2 {
		return nil, fmt.Errorf("exec: order must list all %d tables", q.NumTables())
	}
	var stages []join.Stage
	span := tuple.Single(order[0])
	for i := 1; i < len(order); i++ {
		next := order[i]
		p, ok := equiConnecting(q, span, next)
		if !ok {
			return nil, fmt.Errorf("exec: no equality predicate connects %s to table %d", span, next)
		}
		lRef, rRef := p.Left, p.Right
		if !span.Has(lRef.Table) {
			lRef, rRef = rRef, lRef
		}
		stages = append(stages, join.NewSHJ(join.SHJConfig{
			Q: q, Left: span, Right: tuple.Single(next),
			LeftRef: lRef, RightRef: rRef,
			BuildCost: prof.SteMBuildCost, ProbeCost: prof.SteMProbeCost, PerMatchCost: prof.PerMatchCost,
		}))
		span = span.With(next)
	}
	return stages, nil
}

func equiConnecting(q *query.Q, span tuple.TableSet, t int) (pred.P, bool) {
	for _, p := range q.Preds {
		if p.IsEquiJoin() && p.Connects(span, t) {
			return p, true
		}
	}
	return pred.P{}, false
}
