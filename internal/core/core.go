// Package core is the one place a bound query becomes a running engine.
// The paper has no planner: Section 2.2's whole "planning" step is to
// instantiate one access module per access method, one selection module per
// selection, one SteM per base table and an eddy over them. Build does that
// step — policy, router, engine and trace collector, from a plain Spec value
// — and hands back an Exec, which owns the four and is the only thing that
// knows the order they are installed, reset and released in. The public
// facade (Run, Prepare, Open), the stemsql CLI and the stemsd server each
// translate their own options into a Spec and call Build; none of them
// constructs a router or an engine (a lint test in this package keeps it that
// way). The experiment harness and the baseline executors drive eddy.Routing
// directly: they also run non-SteM architectures, which a Spec cannot
// describe.
//
// A Spec says what to run, never how the engine should carry it: which batch
// representation moves (rows or column vectors) is the engine's decision,
// made from what it observes.
//
// Choosing an engine: Sim is the deterministic discrete-event reference —
// identical output sequences run to run, virtual time, deadlines — and is
// what every figure reproduction and oracle test uses. Concurrent is the
// deployment-shaped goroutine/channel engine on a real clock; it gives each
// module its own workers and is the only engine whose handles are worth
// pooling. Both run the same modules and the same router, and must produce
// the same result multiset.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/stem"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Engine selects the execution engine.
type Engine uint8

const (
	// Sim is the deterministic discrete-event engine.
	Sim Engine = iota
	// Concurrent is the goroutine/channel engine.
	Concurrent
)

// EngineByName maps "sim" and "concurrent" to an Engine; it is the single
// name→engine mapping shared by the CLI flag and the server's per-request
// override.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "sim":
		return Sim, nil
	case "concurrent":
		return Concurrent, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want concurrent or sim)", name)
	}
}

// Spec describes one execution: the bound query and every knob that changes
// the built router or engine. The zero value of every field but Q is the
// default. Slices indexed by table use the query's FROM positions.
type Spec struct {
	Q      *query.Q
	Engine Engine
	// Policy is a policy.ByName name; Seed feeds the randomized policies
	// (0 means 1).
	Policy string
	Seed   int64
	// Windows bounds SteM sizes per table (0 = unbounded); nil is none.
	Windows []int
	// Shared attaches pre-built shared SteM state per table (nil entries
	// stay private); nil is none.
	Shared []*stem.SharedState
	// ProbeBounce, SkipBuild and SkipBuildTable pass through to the router
	// (Sections 4.3 and 3.5).
	ProbeBounce    stem.ProbeBounceMode
	SkipBuild      bool
	SkipBuildTable int
	// Deadline stops the Sim engine at that virtual time; OnEmit observes
	// every tuple a module hands back to the eddy. Sim only.
	Deadline clock.Time
	OnEmit   func(t *tuple.Tuple, at clock.Time)
	// Trace attaches a collector, which Record and Report read.
	Trace bool
}

// Poolable reports whether a cleanly finished handle built from this Spec
// can be Reset in place and run again: the Concurrent engine without
// windows. The simulator is cheap to build and its event heap is not
// rewindable; windows hold per-run eviction state no Reset reconstructs.
func (sp *Spec) Poolable() bool {
	return sp.Engine == Concurrent && sp.Windows == nil
}

// Stats is the one aggregation of a handle's run-level counters. They are
// cumulative since Build or the last Reset, so after delta rounds they cover
// the standing query's whole life.
type Stats struct {
	RoutingSteps uint64
	IndexProbes  uint64
	Builds       uint64
	// Events counts simulation events (Sim only).
	Events uint64
}

type state uint8

const (
	fresh    state = iota // built or Reset, not yet run
	clean                 // every round so far completed without error
	dirty                 // a round failed or was canceled; may hold stranded batches
	released              // SteM storage handed back; nothing runs before a Reset
)

// Exec is a built, runnable query. It is not safe for concurrent use: one
// round at a time.
type Exec struct {
	spec Spec
	r    *eddy.Router
	sim  *eddy.Sim
	eng  *eddy.Concurrent
	coll *trace.Collector
	st   state
	// cbs is a delta round's scratch list of injected batches.
	cbs []*flow.ColBatch
}

// Build validates the Spec and instantiates the module graph, the engine and
// the collector. The caller owns the handle and should Release it when done
// with its rows. An error means the Spec is invalid.
func Build(sp Spec) (*Exec, error) {
	e := &Exec{spec: sp}
	if err := e.build(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Exec) build() error {
	sp := &e.spec
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	pol, err := policy.ByName(sp.Policy, seed)
	if err != nil {
		return err
	}
	ropts := eddy.Options{
		Policy:         pol,
		ProbeBounce:    sp.ProbeBounce,
		SkipBuild:      sp.SkipBuild,
		SkipBuildTable: sp.SkipBuildTable,
	}
	if sp.Windows != nil {
		ropts.WindowFor = func(t int) int { return sp.Windows[t] }
	}
	if sp.Shared != nil {
		ropts.SharedFor = func(t int) *stem.SharedState { return sp.Shared[t] }
	}
	r, err := eddy.NewRouter(sp.Q, ropts)
	if err != nil {
		return err
	}
	e.r, e.sim, e.eng, e.coll = r, nil, nil, nil
	if sp.Engine == Concurrent {
		e.eng = eddy.NewConcurrent(r, nil)
	} else {
		e.sim = eddy.NewSim(r)
		e.sim.Deadline = sp.Deadline
	}
	if sp.Trace {
		e.coll = trace.NewCollector(r.Modules())
	}
	e.st = fresh
	return nil
}

// Poolable reports whether the handle may be kept and Reset in place after a
// clean run (see Spec.Poolable).
func (e *Exec) Poolable() bool { return e.spec.Poolable() }

// Shared returns the shared states the router was built against
// (Spec.Shared), which a pool compares before handing the handle out again.
func (e *Exec) Shared() []*stem.SharedState { return e.spec.Shared }

// Run executes the query over the tables' current rows to quiescence and
// returns the results in emission order. The two hooks, both optional and
// both called on the eddy goroutine, differ in who owns a result. onOutput
// streams each result tuple as it is produced, and the tuple is returned as
// well — the facade reads both. onCols (Concurrent engine only) is a sink: it
// takes the results that reach the output stage as column vectors, which are
// never boxed and are not returned — the return value covers only results
// that travelled as tuples — and the batch is the engine's again when the hook
// returns. A nil ctx never cancels. A canceled or failed run returns no
// results; Stats and Record still describe what it did. Run needs a fresh
// handle: call Reset between runs.
func (e *Exec) Run(ctx context.Context, onOutput func(t *tuple.Tuple, at clock.Time), onCols func(cb *flow.ColBatch, at clock.Time)) ([]eddy.Output, error) {
	if e.st != fresh {
		return nil, errors.New("core: Run on a used handle (Reset it first)")
	}
	return e.round(ctx, nil, false, onOutput, onCols)
}

// RunDelta runs one incremental round over the SteM state every earlier
// round built: rows[pos] (nil for none) are the rows newly arrived at FROM
// position pos, and they enter the dataflow in place of the scans, so
// exactly the new join results come back (see eddy.Concurrent.RunDeltaCols
// for why rounds compose exactly). The rows must not change afterwards: the
// SteMs store them by reference. It needs a handle whose earlier rounds all
// completed cleanly. The hooks are Run's.
func (e *Exec) RunDelta(ctx context.Context, rows [][]tuple.Row, onOutput func(t *tuple.Tuple, at clock.Time), onCols func(cb *flow.ColBatch, at clock.Time)) ([]eddy.Output, error) {
	if e.st != clean {
		return nil, errors.New("core: RunDelta needs a handle whose earlier rounds completed cleanly")
	}
	if e.eng != nil {
		e.eng.Reset() // rearms the round-scoped state; SteM state stays
	}
	return e.round(ctx, rows, true, onOutput, onCols)
}

// round installs the hooks, runs one round on whichever engine the handle
// has, clears the hooks of an engine that may be kept (a pooled handle must
// not pin its last caller's closures), and checks the invariants every
// caller needs checked.
func (e *Exec) round(ctx context.Context, rows [][]tuple.Row, delta bool, onOutput func(*tuple.Tuple, clock.Time), onCols func(*flow.ColBatch, clock.Time)) ([]eddy.Output, error) {
	q := e.spec.Q
	var outs []eddy.Output
	var err error
	if eng := e.eng; eng != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		eng.OnOutput, eng.OnOutputCols = onOutput, onCols
		if e.coll != nil {
			e.coll.AttachConcurrent(eng)
		}
		if delta { // the rows enter as column batches, chunked as scans chunk
			cbs := e.cbs[:0]
			for pos, rs := range rows {
				for lo := 0; lo < len(rs); lo += flow.ChunkRows {
					cb := flow.GetColBatch(len(q.Tables))
					cb.Span = tuple.Single(pos)
					cb.LoadRows(pos, q.Tables[pos].Arity(), rs[lo:min(lo+flow.ChunkRows, len(rs))])
					cbs = append(cbs, cb)
				}
			}
			outs, err = eng.RunDeltaCols(ctx, cbs)
			clear(cbs) // the engine pooled them
			e.cbs = cbs[:0]
		} else {
			outs, err = eng.RunContext(ctx)
		}
		eng.OnOutput, eng.OnOutputCols, eng.OnService = nil, nil, nil
	} else {
		sim := e.sim
		sim.Ctx = ctx
		sim.OnOutput, sim.OnProcess, sim.OnEmit = onOutput, nil, e.spec.OnEmit
		if e.coll != nil {
			e.coll.Attach(sim)
		}
		if delta { // the rows enter as singleton tuples
			var ts []*tuple.Tuple
			for pos, rs := range rows {
				for _, row := range rs {
					ts = append(ts, tuple.NewSingleton(len(q.Tables), pos, row))
				}
			}
			outs, err = sim.RunDelta(ts)
		} else {
			outs, err = sim.Run()
		}
	}
	if err == nil {
		err = e.check()
	}
	if err != nil {
		e.st = dirty // the state is unusable from here on
		return nil, err
	}
	e.st = clean
	return outs, nil
}

// check surfaces what a quiesced engine cannot report through its own
// error: tuples the router found no legal move for.
func (e *Exec) check() error {
	if n := e.r.Stuck(); n > 0 {
		return fmt.Errorf("core: internal error — %d tuples had no legal route", n)
	}
	return nil
}

// Reset returns the handle to its just-built state. A Poolable handle whose
// rounds all completed cleanly is reset in place — SteM dictionaries emptied
// (or, after a Release, acquired again from the process-wide pool), inboxes
// rewound, a fresh clock, collector zeroed, and the routing policy
// deliberately kept, so what it learned carries into the next run. Any other
// handle is torn down and built again from its Spec (with a new policy): a
// canceled run may strand batches mid-flight, and simulator and window state
// is not rewindable.
func (e *Exec) Reset() error {
	switch {
	case e.st == fresh:
	case (e.st == clean || e.st == released) && e.Poolable():
		e.r.Reset(nil)
		e.eng.Reset()
		e.eng.SetClock(nil)
		if e.coll != nil {
			e.coll.Reset()
		}
		e.st = fresh
	default:
		e.Release()
		return e.build()
	}
	return nil
}

// Stats aggregates the router's and modules' counters.
func (e *Exec) Stats() Stats {
	st := Stats{RoutingSteps: e.r.Routed()}
	for _, a := range e.r.AMs() {
		st.IndexProbes += a.Stats().Probes
	}
	for _, s := range e.r.SteMs() {
		st.Builds += s.Stats().Builds
	}
	if e.sim != nil {
		st.Events = e.sim.Events()
	}
	return st
}

// Record snapshots the collector into wire form, with the policy's learned
// estimates when explain is set. It needs Spec.Trace.
func (e *Exec) Record(explain bool) trace.Record {
	var pol policy.Policy
	if explain {
		pol = e.r.Policy()
	}
	return e.coll.Record(pol)
}

// Report renders the collector's per-module report. It needs Spec.Trace.
func (e *Exec) Report() string { return e.coll.Report() }

// Release hands the SteMs' dictionary storage back to the process-wide pool
// (see stem.SteM.Release) once the caller is done with the handle's rows: the
// handle keeps what derives from the query — router, policy, predicate caches
// — and gives up what derives from the data, which whatever query runs next
// can use. It is idempotent. Counters, Record and Report stay readable; Run
// and RunDelta refuse until a Reset. A standing query must not call it
// between rounds. A handle whose last round failed releases nothing: that
// round may have died inside a module, mid-build.
func (e *Exec) Release() {
	if e.st == dirty || e.st == released {
		return
	}
	for _, s := range e.r.SteMs() {
		s.Release()
	}
	e.st = released
}
