// engine.go is the concurrent engine's core: every dataflow rule the eddy and
// the module workers follow — routing, coalescing, the columns-before-rows
// flush, the in-flight count and quiescence, module service and feedback
// accounting — with no goroutine and no channel of its own. Whatever
// schedules it is reached through sched: the goroutine driver
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

// DefaultBatchSize is the number of tuples the eddy coalesces into one
// module batch when Concurrent.BatchSize is left zero.
const DefaultBatchSize = 64

// sched is how the core reaches whatever schedules it. The eddy side of the
// core (begin, deliver, flushAll, quiescent) runs on one goroutine; service
// may run on several at once.
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
// column batch in b.Col), or a service's feedback (fb set). A batch whose
// to.Delay is set was already routed to module to.Module, and that delay has
// now elapsed.
type eddyEvent struct {
	b  *flow.Batch
	fb *policy.Feedback
	to Decision
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

// pend is one coalescing buffer of a module: the row tuples and the column
// batch (either may be nil) routed to it with one span and move class, so
// every released batch is span-homogeneous and its policy feedback
// attributes to one tuplestate signature.
type pend struct {
	span tuple.TableSet
	kind policy.Kind
	rows *flow.Batch
	col  *flow.ColBatch
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

	// BatchSize caps the number of tuples the eddy coalesces into one
	// module batch; 0 defaults to DefaultBatchSize at Run, and 1 sends every
	// tuple and every column batch on its own. With a routing that can decide
	// a whole batch at once (ColRouter), scan AMs emit typed column-vector
	// batches, selection and SteM modules service them with vectorized
	// kernels, and the eddy routes each with one decision; modules and SteM
	// configurations that need row semantics fall back to rows on their own
	// (see ARCHITECTURE.md, "Columnar batches"). Set before Run.
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
	// event, a buffer, an inbox or a service whose feedback the eddy has not
	// consumed. Only the eddy writes it; zero is quiescence.
	inflight int64
	// costEWMA is each module's EWMA service cost per tuple, in ns; waiting
	// counts the tuples queued on its inbox and not yet in service.
	costEWMA []atomic.Int64
	waiting  []atomic.Int64

	// colRouter and colMod cache the columnar capabilities of the routing
	// and of each module for this run: a nil colRouter means the whole
	// dataflow is row-at-a-time, nil module entries materialize to rows at
	// enqueue. rowMod is each module lifted to a BatchModule, once per
	// shell: the row service call of a module colMod does not cover.
	colRouter ColRouter
	colMod    []flow.ColModule
	rowMod    []flow.BatchModule

	// bufs holds each module's coalescing buffers in first-use order, so a
	// flush replays; pendCount is the rows they hold. batchCap is the
	// per-module coalescing limit: BatchSize for single-server modules, 1 for
	// modules with internal parallelism (batching those would serialize
	// service their Parallel() worker pool is meant to overlap — e.g.
	// asynchronous index lookups).
	bufs      [][]pend
	pendCount []int
	batchCap  []int

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
	waiting := int64(c.pendCount[mod]) + c.waiting[mod].Load()
	return clock.Duration(waiting * c.costEWMA[mod].Load() / int64(par))
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
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	mods := c.r.Modules()
	if len(c.bufs) != len(mods) {
		c.bufs = make([][]pend, len(mods))
		c.pendCount = make([]int, len(mods))
		c.batchCap = make([]int, len(mods))
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
		c.batchCap[i] = 1
		if m.Parallel() == 1 {
			c.batchCap[i] = c.BatchSize
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

// reset empties the core for a pooled shell's next run. A canceled run can
// abandon batches in the coalescing buffers; they go back to their pools.
func (c *engine) reset() {
	c.inflight = 0
	for i := range c.costEWMA {
		c.costEWMA[i].Store(0)
		c.waiting[i].Store(0)
	}
	for mod, bufs := range c.bufs {
		for _, p := range bufs {
			if p.rows != nil {
				putBatch(p.rows)
			}
			if p.col != nil {
				flow.PutColBatch(p.col)
			}
		}
		clear(bufs)
		c.bufs[mod] = bufs[:0]
		c.pendCount[mod] = 0
	}
	c.colRouter = nil
	c.OnOutput, c.OnOutputCols, c.OnService = nil, nil, nil
	c.outputs, c.err = nil, nil
}

// deliver is everything the eddy does with one event.
func (c *engine) deliver(ev eddyEvent) {
	b := ev.b
	switch {
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
	case ev.to.Delay > 0 && b.Col != nil:
		c.enqueueCol(ev.to.Module, ev.to.Kind, b.Col)
	case ev.to.Delay > 0:
		c.enqueue(ev.to.Module, ev.to.Kind, b.Tuples[0])
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

// routeRows routes row tuples, one Route call each, coalescing module-bound
// tuples into the per-module buffers. A routing panic fails the run and
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
			c.enqueue(d.Module, d.Kind, t)
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
// of a run with no OnOutputCols, where rows become result tuples.
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
		c.enqueueCol(d.Module, d.Kind, cb)
		return
	}
	flow.PutColBatch(cb)
	c.inflight -= n
}

// slot returns module mod's buffer for one span and move class, adding it
// last (first-use order) if it is new.
func (c *engine) slot(mod int, span tuple.TableSet, kind policy.Kind) *pend {
	bufs := c.bufs[mod]
	for i := range bufs {
		if bufs[i].span == span && bufs[i].kind == kind {
			return &bufs[i]
		}
	}
	c.bufs[mod] = append(bufs, pend{span: span, kind: kind})
	return &c.bufs[mod][len(bufs)]
}

// push hands a job to module mod's inbox.
func (c *engine) push(mod int, j job) {
	c.waiting[mod].Add(int64(j.b.Len()))
	c.s.queue(mod, j)
}

// enqueue adds a tuple to its buffer at module mod, releasing the batch once
// it reaches the module's coalescing cap. Parallel modules have cap 1, so
// their tuples are pushed straight through and their worker pools keep
// overlapping service.
func (c *engine) enqueue(mod int, kind policy.Kind, t *tuple.Tuple) {
	if c.batchCap[mod] <= 1 {
		c.push(mod, job{getBatchOf(t), kind})
		return
	}
	p := c.slot(mod, t.Span, kind)
	if p.rows == nil {
		p.rows = getBatch()
	}
	p.rows.Add(t)
	c.pendCount[mod]++
	if p.rows.Len() >= c.batchCap[mod] {
		c.pendCount[mod] -= p.rows.Len()
		c.push(mod, job{p.rows, kind})
		p.rows = nil
	}
}

// enqueueCol adds a columnar batch to its buffer at module mod. Modules
// without a columnar path get the rows materialized into the row enqueue.
// Merging is only legal between identical routing headers; a header change
// (visit counts advanced, lineage flags set) releases the buffered batch and
// starts a fresh one. Merged rows move into the buffered batch's pooled
// vector storage and the source batch returns to the pool.
func (c *engine) enqueueCol(mod int, kind policy.Kind, cb *flow.ColBatch) {
	switch {
	case c.colMod[mod] == nil:
		for _, t := range cb.Materialize() {
			c.enqueue(mod, kind, t)
		}
		flow.PutColBatch(cb)
		return
	case c.batchCap[mod] <= 1:
		c.push(mod, job{getColShell(cb), kind})
		return
	}
	p := c.slot(mod, cb.Span, kind)
	c.pendCount[mod] += cb.Rows()
	switch {
	case p.col == nil:
		p.col = cb
	case p.col.SameHeader(cb):
		p.col.AppendAllFrom(cb)
		flow.PutColBatch(cb)
	default:
		c.pendCount[mod] -= p.col.Rows()
		c.push(mod, job{getColShell(p.col), kind})
		p.col = cb
	}
	if p.col.Rows() >= c.batchCap[mod] {
		c.pendCount[mod] -= p.col.Rows()
		c.push(mod, job{getColShell(p.col), kind})
		p.col = nil
	}
}

// flushModule releases every non-empty buffer of one module, columnar ones
// first: an AM's scan chunks are columnar and its EOT is a row, so this order
// keeps the chunks ahead of the EOT in the SteM's inbox — a SteM that saw
// the EOT first would claim completeness over rows it has not built (a
// Theorem 2 loss).
func (c *engine) flushModule(mod int) {
	bufs := c.bufs[mod]
	for _, p := range bufs {
		if p.col != nil {
			c.push(mod, job{getColShell(p.col), p.kind})
		}
	}
	for _, p := range bufs {
		if p.rows != nil {
			c.push(mod, job{p.rows, p.kind})
		}
	}
	clear(bufs)
	c.bufs[mod] = bufs[:0]
	c.pendCount[mod] = 0
}

// flushAll releases every non-empty buffer: the eddy's idle step, so the
// tuples held there can produce the events it is about to wait for.
func (c *engine) flushAll() {
	for mod := range c.bufs {
		c.flushModule(mod)
	}
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
// before row emissions (an AM's scan chunks must precede its row EOT), delayed
// ones leave last, from one sender in delay order (a paced scan's EOT is due
// with its last row and must not overtake it), and the input batch's columnar
// payload returns to the pool unless the module re-emitted it (a bounce).
func (c *engine) service(mod int, j job) {
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
		rowEms, colEms, cost = m.ProcessColBatch(b, start)
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
