// sim.go is the deterministic discrete-event engine. The paper notes the
// modules' asynchrony "can also be achieved in a single-threaded
// implementation [24]"; this engine is exactly that: every module runs as a
// queued server on a virtual clock, so the paper's time-series experiments
// regenerate deterministically in milliseconds of wall time.
package eddy

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/tuple"
)

// Output is one result tuple with its emission time.
type Output struct {
	T  *tuple.Tuple
	At clock.Time
}

type evKind uint8

const (
	evArrive   evKind = iota // tuple arrives at the eddy for routing
	evEnqueue                // tuple arrives at a module's queue
	evComplete               // a module finishes servicing a tuple
)

type event struct {
	at    clock.Time
	seq   uint64
	kind  evKind
	t     *tuple.Tuple
	mod   int
	mkind policy.Kind // move class, for policy feedback attribution
	ems   []flow.Emission
	cost  clock.Duration
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// server is one module's queueing state.
type server struct {
	queue    []queued
	busy     int
	cap      int // 0 = unbounded
	ewmaCost float64
	seen     uint64
}

func (s *server) observeCost(c clock.Duration) {
	s.seen++
	if s.seen == 1 {
		s.ewmaCost = c.Seconds()
		return
	}
	s.ewmaCost = 0.2*c.Seconds() + 0.8*s.ewmaCost
}

// Routing abstracts what the engines need from a router, so the baseline
// executors (static plans and the eddy-with-join-modules architecture of
// Figure 1) run on the same engines as the SteM eddy. A row tuple is routed
// on its own, as in the paper's eddy; a columnar batch is routed as one unit
// by a Routing that also implements ColRouter.
type Routing interface {
	// Route decides the fate of a tuple returned to the eddy.
	Route(t *tuple.Tuple, env policy.Env) Decision
	// Modules returns the module list; indexes are stable module IDs.
	Modules() []flow.Module
	// Seeds returns the initial tuples injected at time zero.
	Seeds() []*tuple.Tuple
	// Policy returns the policy to feed observations to.
	Policy() policy.Policy
}

// Sim drives a Routing on a virtual clock.
type Sim struct {
	r       Routing
	heap    eventHeap
	seq     uint64
	servers []server
	now     clock.Time

	// Deadline, when >0, stops the run at that virtual time (used for
	// continuous queries over unbounded streams).
	Deadline clock.Time
	// MaxEvents guards against runaway routing loops; 0 defaults to 50M.
	MaxEvents uint64
	// Ctx, when non-nil, cancels the run: the event loop polls it every few
	// hundred events and returns the results so far plus Ctx.Err(). Left
	// nil (the default) the loop is untouched, so the deterministic figure
	// reproductions are bit-identical.
	Ctx context.Context

	// OnOutput is called for each result tuple.
	OnOutput func(t *tuple.Tuple, at clock.Time)
	// OnProcess is called after each module service completes, with the
	// productive output count (emissions other than the input bouncing
	// back).
	OnProcess func(mod int, t *tuple.Tuple, at clock.Time, outputs int, cost clock.Duration)
	// OnEmit is called for every tuple a module emits back to the eddy —
	// including intermediate (partial-span) results, which the online
	// processing metric of the paper values (Section 3.4).
	OnEmit func(t *tuple.Tuple, at clock.Time)

	outputs []Output
	events  uint64
}

// NewSim prepares a simulation run for the router's query.
func NewSim(r Routing) *Sim {
	s := &Sim{r: r}
	mods := r.Modules()
	s.servers = make([]server, len(mods))
	for i, m := range mods {
		s.servers[i].cap = m.Parallel()
	}
	return s
}

// Now implements policy.Env.
func (s *Sim) Now() clock.Time { return s.now }

// Backlog implements policy.Env: the estimated wait before service at mod.
func (s *Sim) Backlog(mod int) clock.Duration {
	sv := &s.servers[mod]
	waiting := len(sv.queue)
	if sv.cap > 0 {
		waiting += sv.busy
		return clock.Duration(float64(waiting) / float64(sv.cap) * sv.ewmaCost * float64(clock.Second))
	}
	return 0
}

// Inject schedules a tuple's arrival at the eddy at the given time; used by
// streaming experiments to feed unbounded sources.
func (s *Sim) Inject(t *tuple.Tuple, at clock.Time) {
	s.push(&event{at: at, kind: evArrive, t: t})
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.heap, e)
}

// Run executes the query to completion (or the deadline) and returns the
// result tuples in output order.
func (s *Sim) Run() ([]Output, error) {
	for _, seed := range s.r.Seeds() {
		s.push(&event{at: 0, kind: evArrive, t: seed})
	}
	return s.loop()
}

// RunDelta continues a completed run with newly arrived tuples: each is
// injected at the current virtual time and simulated to quiescence against
// the SteM state the earlier rounds built, and only the results of this
// round are returned. The SteM timestamp constraint makes the rounds
// compose exactly — an injected tuple's probes match every strictly-older
// build, so each cross-round combination is produced by its last-arriving
// component, exactly once.
func (s *Sim) RunDelta(ts []*tuple.Tuple) ([]Output, error) {
	mark := len(s.outputs)
	for _, t := range ts {
		s.Inject(t, s.now)
	}
	outs, err := s.loop()
	if err != nil {
		return nil, err
	}
	return outs[mark:], nil
}

// loop drains the event heap to quiescence.
func (s *Sim) loop() ([]Output, error) {
	max := s.MaxEvents
	if max == 0 {
		max = 50_000_000
	}
	for s.heap.Len() > 0 {
		e := heap.Pop(&s.heap).(*event)
		if s.Deadline > 0 && e.at > s.Deadline {
			return s.outputs, nil
		}
		if e.at < s.now {
			return nil, fmt.Errorf("eddy: time went backwards (%v < %v)", e.at, s.now)
		}
		s.now = e.at
		s.events++
		if s.events > max {
			return nil, fmt.Errorf("eddy: exceeded %d events — runaway routing loop?", max)
		}
		if s.Ctx != nil && s.events&255 == 0 {
			select {
			case <-s.Ctx.Done():
				return s.outputs, fmt.Errorf("eddy: run canceled after %d events: %w", s.events, s.Ctx.Err())
			default:
			}
		}
		switch e.kind {
		case evArrive:
			s.route(e.t)
		case evEnqueue:
			s.enqueue(e.mod, e.t, e.mkind)
		case evComplete:
			s.complete(e)
		}
	}
	return s.outputs, nil
}

// Events returns the number of simulation events processed.
func (s *Sim) Events() uint64 { return s.events }

func (s *Sim) route(t *tuple.Tuple) {
	d := s.r.Route(t, s)
	switch {
	case d.Output:
		s.outputs = append(s.outputs, Output{T: t, At: s.now})
		if s.OnOutput != nil {
			s.OnOutput(t, s.now)
		}
	case d.Drop:
		// removed from the dataflow
	default:
		if d.Delay > 0 {
			s.push(&event{at: s.now.Add(d.Delay), kind: evEnqueue, t: t, mod: d.Module, mkind: d.Kind})
		} else {
			s.enqueue(d.Module, t, d.Kind)
		}
	}
}

type queued struct {
	t     *tuple.Tuple
	mkind policy.Kind
}

func (s *Sim) enqueue(mod int, t *tuple.Tuple, mkind policy.Kind) {
	sv := &s.servers[mod]
	if sv.cap == 0 || sv.busy < sv.cap {
		s.startService(mod, t, mkind)
		return
	}
	sv.queue = append(sv.queue, queued{t, mkind})
}

func (s *Sim) startService(mod int, t *tuple.Tuple, mkind policy.Kind) {
	sv := &s.servers[mod]
	sv.busy++
	ems, cost := s.r.Modules()[mod].Process(t, s.now)
	sv.observeCost(cost)
	s.push(&event{at: s.now.Add(cost), kind: evComplete, t: t, mod: mod, mkind: mkind, ems: ems, cost: cost})
}

func (s *Sim) complete(e *event) {
	sv := &s.servers[e.mod]
	sv.busy--
	outputs := 0
	for _, em := range e.ems {
		if em.T != e.t {
			outputs++
		}
		if s.OnEmit != nil {
			s.OnEmit(em.T, s.now.Add(em.Delay))
		}
		s.push(&event{at: s.now.Add(em.Delay), kind: evArrive, t: em.T})
	}
	s.r.Policy().Observe(policy.Feedback{
		Module: e.mod, Kind: e.mkind, Sig: uint64(e.t.Span),
		Outputs: outputs, Emitted: len(e.ems), Cost: e.cost, Now: s.now,
	})
	if s.OnProcess != nil {
		s.OnProcess(e.mod, e.t, s.now, outputs, e.cost)
	}
	if len(sv.queue) > 0 && (sv.cap == 0 || sv.busy < sv.cap) {
		next := sv.queue[0]
		sv.queue = sv.queue[1:]
		s.startService(e.mod, next.t, next.mkind)
	}
}
