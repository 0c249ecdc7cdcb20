// engine.go is the concurrent engine's core: every dataflow rule the eddy and
// the module workers follow — routing, the in-flight count and quiescence,
// module service and feedback accounting — with no goroutine and no channel of
// its own. Whatever schedules it is reached through sched: the goroutine driver
// (concurrent.go) in production; in the tests, a seeded interleaver that
// picks every next step, so any interleaving of the paper's asynchronous
// modules can be chosen and replayed.
package eddy

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/tuple"
)

// DefaultBatchSize is the benchmark harness's own batch size; the engine
// coalesces nothing and never reads it. It is kept because the harness does.
const DefaultBatchSize = 64

// sched is how the core reaches whatever schedules it. The eddy side of the
// core (begin, deliver, quiescent) runs on one goroutine; service may run on
// several at once.
type sched interface {
	// post hands one event to the eddy.
	post(ev eddyEvent)
	// postAfter hands evs to the eddy in slice order, each once its delay
	// past now has elapsed.
	postAfter(evs []delayed)
	// queue appends a job to module mod's inbox.
	queue(mod int, j job)
	// floor holds a service begun at start until cost has elapsed, and
	// returns the time it ends.
	floor(start clock.Time, cost clock.Duration) clock.Time
	// now reads the engine clock.
	now() clock.Time
}

// eddyEvent is a message to the eddy: a batch to route (row tuples, or a
// column batch in b.Col), a service's feedback (fb set), or a service that
// failed (err set; lost is the rows its job took in). A batch whose to.Delay
// is set was already routed to module to.Module, and that delay has now
// elapsed.
type eddyEvent struct {
	b    *flow.Batch
	fb   *policy.Feedback
	to   Decision
	err  error
	lost int
}

// delayed is one event of a postAfter call, due after its delay.
type delayed struct {
	ev    eddyEvent
	after clock.Duration
}

// job is one batch bound for a module, with the move class the router chose
// for it; the batch's feedback reports that class to the policy.
type job struct {
	b    *flow.Batch
	kind policy.Kind
}

// emissions is the scratch a columnar module service appends its emissions
// to. Whoever runs service owns one and passes it to every call: each
// goroutine-driver worker its own (siblings of a Parallel()>1 module never
// share one), the inline driver one. service posts every emission before it
// returns, so the scratch is dead between calls; it is cleared then too, so
// its capacity pins no tuple or batch. The scratch lives on the shell, and a
// pooled shell's next run appends into the same capacity.
type emissions struct {
	rows []flow.Emission
	cols []flow.ColEmission
}

// keep takes back the slices a service appended to, emptied. A row slice
// that grew past a scan chunk's worth (a paced scan's every row, a row-path
// probe with that many matches) is let go, so a pooled shell keeps no more
// than that.
func (e *emissions) keep(rows []flow.Emission, cols []flow.ColEmission) {
	clear(rows)
	clear(cols)
	e.rows, e.cols = rows[:0], cols[:0]
	if cap(rows) > flow.ChunkRows {
		e.rows = nil
	}
}

// drop empties the scratch after a service that panicked, which may have
// appended past the slices' lengths before it unwound.
func (e *emissions) drop() {
	e.keep(e.rows[:cap(e.rows)], e.cols[:cap(e.cols)])
}

// batchPool recycles flow.Batch shells (and their tuple slices) between the
// eddy and the module workers. A batch is returned to the pool by whichever
// side consumes it: workers recycle inbox batches after processing, the eddy
// recycles event batches after routing their tuples. Batches held in a
// closed inbox at shutdown are simply dropped.
var batchPool = sync.Pool{New: func() any { return &flow.Batch{} }}

func getBatch() *flow.Batch {
	b := batchPool.Get().(*flow.Batch)
	b.Reset()
	return b
}

func getBatchOf(t *tuple.Tuple) *flow.Batch {
	b := getBatch()
	b.Add(t)
	return b
}

// getColShell wraps a columnar payload in a pooled row-batch shell: the inbox
// and event currency stays *flow.Batch.
func getColShell(cb *flow.ColBatch) *flow.Batch {
	b := getBatch()
	b.Col = cb
	return b
}

func putBatch(b *flow.Batch) {
	b.Reset()
	batchPool.Put(b)
}

// fbPool recycles the Feedback carriers services post: boxing each report
// into an event forced a heap allocation per batch. The eddy returns carriers
// after Observe; carriers stranded when a run is canceled are simply dropped.
var fbPool = sync.Pool{New: func() any { return new(policy.Feedback) }}

// ColRouter is the optional routing capability the columnar dataflow needs:
// deciding the fate of a whole column-vector batch in one call. The Router
// implements it; a Routing that does not keeps the engine on the row path.
type ColRouter interface {
	RouteCol(cb *flow.ColBatch, env policy.Env) Decision
}

// engine is the core. Its eddy-side state is touched by one goroutine only;
// what service also touches (costEWMA, waiting) is atomic.
type engine struct {
	r Routing
	s sched

	// BatchSize is ignored: the eddy hands every routed tuple and column
	// batch to its module at once. It is kept because the benchmark harness
	// sets it.
	BatchSize int
	// OnOutput is called (on the eddy goroutine) for each result.
	OnOutput func(t *tuple.Tuple, at clock.Time)
	// OnOutputCols, when set, takes the results that reach the output stage as
	// a columnar batch (on the eddy goroutine; selection vector honoured via
	// Rows/RowAt) in place of everything else: not materialized, not passed to
	// OnOutput, not returned by the run. The hook must keep no reference into
	// the batch, which is pooled when it returns. Results that travelled as
	// tuples still take OnOutput and the return value.
	OnOutputCols func(cb *flow.ColBatch, at clock.Time)
	// OnService is called (on the eddy goroutine) with every service
	// completion the routing policy observes — row and columnar batches both
	// funnel through here — so a trace collector sees exactly the feedback
	// stream the policy learns from. Set before Run; Reset clears it.
	OnService func(fb policy.Feedback)

	// inflight counts the live rows of the run wherever they are: in an
	// event, an inbox or a service whose feedback the eddy has not consumed.
	// Only the eddy writes it; zero is quiescence.
	inflight int64
	// costEWMA is each module's EWMA service cost per tuple, in ns; waiting
	// counts the tuples queued on its inbox and not yet in service.
	costEWMA []atomic.Int64
	waiting  []atomic.Int64

	// colRouter and colMod cache the columnar capabilities of the routing
	// and of each module for this run: a nil colRouter means the whole
	// dataflow is row-at-a-time, nil module entries materialize to rows at
	// push. rowMod is each module lifted to a BatchModule, once per
	// shell: the row service call of a module colMod does not cover.
	colRouter ColRouter
	colMod    []flow.ColModule
	rowMod    []flow.BatchModule

	outputs []Output
	err     error
}

// Now implements policy.Env.
func (c *engine) Now() clock.Time { return c.s.now() }

// Backlog implements policy.Env.
func (c *engine) Backlog(mod int) clock.Duration {
	par := c.r.Modules()[mod].Parallel()
	if par == 0 {
		return 0
	}
	return clock.Duration(c.waiting[mod].Load() * c.costEWMA[mod].Load() / int64(par))
}

// setErr records the first error of the current run; later calls lose.
func (c *engine) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// begin readies the core for one round, then routes the round's seeds — row
// tuples, or a delta round's column batches — before any event arrives.
// Routing never blocks: inboxes are unbounded. A core that already ran keeps
// its run-scoped scaffolding; the module list is a property of the Routing,
// so a reused core's layout always matches.
func (c *engine) begin(seeds []*tuple.Tuple, cols []*flow.ColBatch) {
	mods := c.r.Modules()
	if len(c.costEWMA) != len(mods) {
		c.costEWMA = make([]atomic.Int64, len(mods))
		c.waiting = make([]atomic.Int64, len(mods))
		c.colMod = make([]flow.ColModule, len(mods))
		c.rowMod = make([]flow.BatchModule, len(mods))
		for i, m := range mods {
			c.rowMod[i] = flow.Lift(m)
		}
	}
	c.colRouter, _ = c.r.(ColRouter)
	for i, m := range mods {
		c.colMod[i] = nil
		if c.colRouter != nil {
			c.colMod[i], _ = m.(flow.ColModule)
		}
	}
	c.inflight = int64(len(seeds))
	for _, cb := range cols {
		c.inflight += int64(cb.Rows())
	}
	c.routeRows(seeds)
	for _, cb := range cols {
		c.routeColBatch(cb)
	}
}

// quiescent reports whether the run is over: no live row is left anywhere.
func (c *engine) quiescent() bool { return c.inflight == 0 }

// reset empties the core for a pooled shell's next run.
func (c *engine) reset() {
	c.inflight = 0
	for i := range c.costEWMA {
		c.costEWMA[i].Store(0)
		c.waiting[i].Store(0)
	}
	c.colRouter = nil
	c.OnOutput, c.OnOutputCols, c.OnService = nil, nil, nil
	c.outputs, c.err = nil, nil
}

// deliver is everything the eddy does with one event.
func (c *engine) deliver(ev eddyEvent) {
	b := ev.b
	switch {
	case ev.err != nil:
		c.setErr(ev.err)
		c.inflight -= int64(ev.lost)
		return
	case ev.fb != nil:
		// A service's feedback carries its in-flight change, rows out less
		// rows in, and reaches the eddy ahead of the emissions it counts: so
		// the eddy alone writes the count, and it cannot read zero while a
		// service's feedback or emissions are still to come.
		c.inflight += int64(ev.fb.Emitted - ev.fb.Visits)
		c.r.Policy().Observe(*ev.fb)
		if c.OnService != nil {
			c.OnService(*ev.fb)
		}
		fbPool.Put(ev.fb)
		return
	case ev.to.Delay > 0:
		// Routed before its delay, which has now elapsed: the event's batch
		// becomes the module's job.
		c.push(ev.to.Module, ev.to.Kind, b)
		return
	case b.Col != nil:
		// A columnar batch is already a batch: it routes as one unit,
		// keeping its place in the event stream relative to row events (an
		// AM's scan chunks precede its EOT; a SteM's build bounce precedes
		// anything later).
		c.routeColBatch(b.Col)
	default:
		c.routeRows(b.Tuples)
	}
	putBatch(b)
}

// routeRows routes row tuples, one Route call each; a module-bound tuple goes
// to the module's inbox as a one-tuple job. A routing panic fails the run and
// releases the tuples not yet routed.
func (c *engine) routeRows(ts []*tuple.Tuple) {
	unrouted := int64(len(ts))
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight -= unrouted
		}
	}()
	for _, t := range ts {
		switch d := c.r.Route(t, c); {
		case d.Output:
			c.output(t, c.s.now())
			c.inflight--
		case d.Drop:
			c.inflight--
		case d.Delay > 0:
			c.s.postAfter([]delayed{{eddyEvent{b: getBatchOf(t), to: d}, d.Delay}})
		default:
			c.push(d.Module, d.Kind, getBatchOf(t))
		}
		unrouted--
	}
}

// output is where a result tuple leaves the dataflow: kept for the run's
// return value and streamed to OnOutput.
func (c *engine) output(t *tuple.Tuple, now clock.Time) {
	c.outputs = append(c.outputs, Output{T: t, At: now})
	if c.OnOutput != nil {
		c.OnOutput(t, now)
	}
}

// routeColBatch routes one columnar batch: one decision covers every live
// row, applied without materializing any of them except on the output path
// of a run with no OnOutputCols, where rows become result tuples. A
// module-bound batch is its own job.
func (c *engine) routeColBatch(cb *flow.ColBatch) {
	n := int64(cb.Rows())
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight -= n
		}
	}()
	d := c.colRouter.RouteCol(cb, c)
	switch {
	case d.Output && c.OnOutputCols != nil:
		c.OnOutputCols(cb, c.s.now())
	case d.Output:
		now := c.s.now()
		for _, t := range cb.Materialize() {
			c.output(t, now)
		}
	case d.Drop:
	case d.Delay > 0:
		c.s.postAfter([]delayed{{eddyEvent{b: getColShell(cb), to: d}, d.Delay}})
		return
	default:
		c.push(d.Module, d.Kind, getColShell(cb))
		return
	}
	flow.PutColBatch(cb)
	c.inflight -= n
}

// push hands a routed batch to module mod's inbox as one job. A column batch
// bound for a module with no columnar path goes as a row job holding its
// materialized tuples.
func (c *engine) push(mod int, kind policy.Kind, b *flow.Batch) {
	if cb := b.Col; cb != nil && c.colMod[mod] == nil {
		b.Tuples, b.Col = cb.Materialize(), nil
		flow.PutColBatch(cb)
	}
	c.waiting[mod].Add(int64(b.Len()))
	c.s.queue(mod, job{b, kind})
}

// service is everything a worker does with one job: the widest service call
// the module offers this run, the floor, the accounting, and then the
// feedback followed by the emissions. The cost a module returns is a floor on
// its service time: a declared source latency (an index AM's LATENCY)
// elapses in full, while work that already took longer than its cost — every
// in-memory build, probe, filter and scan at the default scale — waits for
// nothing. What the policy, Backlog and the trace collector see is the
// service time that elapsed on the engine clock. All counters are row counts
// (a columnar emission contributes its live rows). Columnar emissions go
// before row emissions: the eddy holds nothing back, so a module's inbox
// receives work in the order the eddy routed it, and this rule alone keeps an
// AM's scan chunks ahead of its row EOT at the SteM — a SteM that saw the EOT
// first would claim completeness over rows it has not built (a Theorem 2
// loss). Delayed emissions leave last, from one sender in delay order (a paced
// scan's EOT is due with its last row and must not overtake it), and the input
// batch's columnar payload returns to the pool unless the module re-emitted it
// (a bounce). A columnar module appends its emissions to scr, which every
// emission has left by the time service returns.
func (c *engine) service(mod int, j job, scr *emissions) {
	b, cb := j.b, j.b.Col
	// Captured before the module runs: columnar modules filter the selection
	// vector in place (predicate misses, duplicate builds, matched/unmatched
	// splits), so the post-service b.Len() undercounts what entered.
	in := b.Len()
	c.waiting[mod].Add(int64(-in))
	// Batches are span-homogeneous, so one span signs the whole batch.
	var sig uint64
	if cb != nil {
		sig = uint64(cb.Span)
	} else {
		sig = uint64(b.Tuples[0].Span)
	}
	var rowEms []flow.Emission
	var colEms []flow.ColEmission
	var cost clock.Duration
	start := c.s.now()
	if m := c.colMod[mod]; m != nil {
		rowEms, colEms, cost = m.ProcessColBatch(b, start, scr.rows, scr.cols)
		defer scr.keep(rowEms, colEms)
	} else {
		rowEms, cost = c.rowMod[mod].ProcessBatch(b, start)
	}
	now := c.s.floor(start, cost)
	spent := clock.Duration(now - start)
	c.observeCost(mod, spent, in)

	out, fresh := len(rowEms), 0
	if len(rowEms) > 0 {
		fresh = countNew(b, rowEms)
	}
	bounced := false
	for _, em := range colEms {
		out += em.B.Rows()
		if em.B == cb {
			bounced = true
		} else {
			fresh += em.B.Rows()
		}
	}
	fb := fbPool.Get().(*policy.Feedback)
	*fb = policy.Feedback{
		Module: mod, Kind: j.kind, Sig: sig,
		Outputs: fresh, Emitted: out, Cost: spent, Now: now, Visits: in,
	}
	if cb != nil && !bounced {
		flow.PutColBatch(cb)
	}
	putBatch(b)

	c.s.post(eddyEvent{fb: fb})
	for _, em := range colEms {
		c.s.post(eddyEvent{b: getColShell(em.B)})
	}
	var ready *flow.Batch
	var later []delayed
	for _, em := range rowEms {
		if em.Delay > 0 {
			later = append(later, delayed{eddyEvent{b: getBatchOf(em.T)}, em.Delay})
			continue
		}
		if ready == nil {
			ready = getBatch()
		}
		ready.Add(em.T)
	}
	if ready != nil {
		c.s.post(eddyEvent{b: ready})
	}
	if len(later) > 0 {
		slices.SortStableFunc(later, func(a, b delayed) int { return cmp.Compare(a.after, b.after) })
		c.s.postAfter(later)
	}
}

// tryService runs service, turning a module that panics into the error that
// fails the run, instead of unwinding through whoever drives the core (an
// HTTP handler, a subscription loop, a worker goroutine).
func (c *engine) tryService(mod int, j job, scr *emissions) (err error) {
	defer func() {
		if p := recover(); p != nil {
			scr.drop()
			err = fmt.Errorf("eddy: module %s panicked: %v", c.r.Modules()[mod].Name(), p)
		}
	}()
	c.service(mod, j, scr)
	return nil
}

// countNew counts the emissions that are not batch inputs bouncing back —
// the productive output of the batch. Small batches use a linear scan; big
// ones build a one-shot identity set so the count stays O(batch+emissions).
func countNew(b *flow.Batch, ems []flow.Emission) int {
	outputs := 0
	if len(b.Tuples) <= 8 {
		for _, em := range ems {
			if !b.Contains(em.T) {
				outputs++
			}
		}
		return outputs
	}
	in := make(map[*tuple.Tuple]struct{}, len(b.Tuples))
	for _, t := range b.Tuples {
		in[t] = struct{}{}
	}
	for _, em := range ems {
		if _, ok := in[em.T]; !ok {
			outputs++
		}
	}
	return outputs
}

// observeCost folds a batch's total service cost into the module's
// per-tuple EWMA.
func (c *engine) observeCost(mod int, cost clock.Duration, n int) {
	if n <= 0 {
		return
	}
	per := int64(cost) / int64(n)
	old := c.costEWMA[mod].Load()
	nw := per
	if old != 0 {
		nw = (per + 4*old) / 5
	}
	c.costEWMA[mod].Store(nw)
}
