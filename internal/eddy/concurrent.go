// concurrent.go is the channel-based engine: every module runs in its own
// goroutine (a worker pool sized by Parallel()), exchanging batches of
// tuples with the eddy over channels — the paper's Telegraph setting, where
// "each module runs asynchronously in a separate thread". Time is a real
// clock, scaled (defaultScale) so a declared source latency of the paper's
// multi-minute runs elapses in milliseconds; a module's returned cost is a
// floor on its service time, never a sleep added to the work it really did.
//
// The eddy routes each row tuple on its own, as the paper's eddy does, and
// each column-vector batch with one decision. Module service is
// batch-at-a-time: the eddy coalesces routed tuples into per-module batches
// of up to BatchSize, so channel sends, inbox wakeups and module locking
// amortize across the batch.
//
// The engine is not deterministic (that is the simulator's job); it is the
// deployment-shaped engine, and the race-exercising tests run the same
// correctness oracle against it.
package eddy

import (
	"cmp"
	"context"
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

const (
	// defaultMaxVisits caps routings of one tuple to one module
	// (BoundedRepetition); relaxedMaxVisits is the cap under the Section 3.5
	// BuildFirst relaxation, where a prober legitimately re-probes until the
	// scans complete.
	defaultMaxVisits = 3
	relaxedMaxVisits = 64
	// retryDelay paces the first relaxed-mode re-probe; later ones back off
	// exponentially from it.
	retryDelay = clock.Millisecond
)

// batchPool recycles flow.Batch shells (and their tuple slices) between the
// eddy and the module workers. A batch is returned to the pool by whichever
// side consumes it: workers recycle inbox batches after processing, the eddy
// loop recycles event batches after routing their tuples. Batches held in a
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

// getColShell wraps a columnar payload (nil for none) in a pooled row-batch
// shell: the inbox and event currency stays *flow.Batch.
func getColShell(cb *flow.ColBatch) *flow.Batch {
	b := getBatch()
	b.Col = cb
	return b
}

func putBatch(b *flow.Batch) {
	b.Reset()
	batchPool.Put(b)
}

// inbox is an unbounded FIFO of batches; unboundedness removes the
// eddy↔module send cycle that could otherwise deadlock bounded channels.
// items is used as a ring-ish queue: pop consumes from head instead of
// re-slicing, and the slice rewinds to its full capacity whenever the queue
// drains, so a pooled shell's steady-state run stops allocating queue nodes.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*flow.Batch
	head   int
	tuples int
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) push(batch *flow.Batch) {
	b.mu.Lock()
	if b.head == len(b.items) && b.head > 0 {
		b.items = b.items[:0]
		b.head = 0
	}
	b.items = append(b.items, batch)
	b.tuples += batch.Len()
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *inbox) pop() (*flow.Batch, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.items) && !b.closed {
		b.cond.Wait()
	}
	// Closed means the run is over (quiescent or canceled):
	// drop any backlog rather than service it, so cancellation stops
	// workers promptly. On the quiescent path the queues are necessarily
	// empty (queued tuples are counted in the in-flight counter).
	if b.closed {
		return nil, false
	}
	batch := b.items[b.head]
	b.items[b.head] = nil
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	b.tuples -= batch.Len()
	return batch, true
}

// len returns the number of tuples (not batches) waiting.
func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tuples
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reopen rearms a closed inbox for a pooled shell's next run, dropping any
// batches the previous run's shutdown left behind (capacity is kept, batch
// references are not). Callers must guarantee no worker is still blocked in
// pop (RunContext has returned).
func (b *inbox) reopen() {
	b.mu.Lock()
	clear(b.items)
	b.items = b.items[:0]
	b.head = 0
	b.tuples = 0
	b.closed = false
	b.mu.Unlock()
}

// eddyEvent is a message to the eddy goroutine: a batch of tuples to route,
// policy feedback from a module worker (policies are not thread-safe, so
// all policy calls happen on the eddy goroutine), or an already-routed
// tuple or columnar batch whose router-decided delay has elapsed, to enqueue
// for module deliverMod (deliverT or deliverCol set; the coalescing buffers
// are eddy-goroutine-only).
type eddyEvent struct {
	b          *flow.Batch
	fb         *policy.Feedback
	deliverT   *tuple.Tuple
	deliverCol *flow.ColBatch
	deliverMod int
}

// fbPool recycles the Feedback carriers sent through the events channel:
// workers finish a batch per service, and boxing each report into an
// interface-bearing event forced a heap allocation per batch. The eddy loop
// returns carriers after Observe; carriers stranded in the channel when a run
// is canceled are simply dropped.
var fbPool = sync.Pool{New: func() any { return new(policy.Feedback) }}

func newFeedback(fb policy.Feedback) *policy.Feedback {
	p := fbPool.Get().(*policy.Feedback)
	*p = fb
	return p
}

// eventsPool holds the process's idle events channels. A channel belongs to
// one run — wind-down leaves it empty with every sender exited — so a built
// or pooled engine holds none of these 40 kB buffers (room for 1,024 worker
// reports before a worker blocks on the eddy goroutine).
var eventsPool = sync.Pool{New: func() any { return make(chan eddyEvent, 1024) }}

// ColRouter is the optional routing capability the columnar dataflow needs:
// deciding the fate of a whole column-vector batch in one call. The Router
// implements it; a Routing that does not keeps the engine on the row path.
type ColRouter interface {
	RouteCol(cb *flow.ColBatch, env policy.Env) Decision
}

// Concurrent drives a Routing with goroutines and channels on a real clock.
type Concurrent struct {
	r   Routing
	clk *clock.Real

	// BatchSize caps the number of tuples the eddy coalesces into one
	// channel send to a module; 0 defaults to DefaultBatchSize at Run, and 1
	// sends every tuple and every column batch on its own. With a routing
	// that can decide a whole batch at once (ColRouter), scan AMs emit typed
	// column-vector batches, selection and SteM modules service them with
	// vectorized kernels, and the eddy routes each with one decision; modules
	// and SteM configurations that need row semantics fall back to rows on
	// their own (see ARCHITECTURE.md, "Columnar batches"). Set before Run.
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
	// stream the policy learns from. Pure wake-up events (Emitted < 0) are
	// not reported. Set before Run; Reset clears it.
	OnService func(fb policy.Feedback)

	events chan eddyEvent
	// done is closed when the run winds down (quiescence or
	// cancellation); delay-timer goroutines select on it so a canceled run
	// never waits out pending virtual sleeps.
	done chan struct{}
	// senders tracks every goroutine that may still send on events other
	// than the module workers (the seeder and the delay timers); shutdown
	// absorbs events until they and the workers have exited, so the run
	// leaves zero goroutines behind and an empty events channel.
	senders sync.WaitGroup
	// inboxes holds one inbox per module, shared by all its workers.
	inboxes  []*inbox
	inflight atomic.Int64
	costEWMA []atomic.Int64 // per-module EWMA service cost per tuple, ns

	// colRouter and colMod cache the columnar capabilities of the routing
	// and of each module for this run: a nil colRouter means the whole
	// dataflow is row-at-a-time, nil module entries materialize to rows at
	// enqueue. rowMod is each module lifted to a BatchModule, once per
	// shell: the row service call of a module colMod does not cover.
	colRouter ColRouter
	colMod    []flow.ColModule
	rowMod    []flow.BatchModule

	// pend holds the per-module coalescing buffers (eddy goroutine only),
	// keyed by the tuples' span within each module, so every released batch
	// is span-homogeneous — its policy feedback attributes to one tuplestate
	// signature. batchCap is the per-module coalescing limit: BatchSize for
	// single-server modules, 1 for modules with internal parallelism
	// (batching those would serialize service their Parallel() worker pool is
	// meant to overlap — e.g. asynchronous index lookups).
	pend      []map[tuple.TableSet]*flow.Batch
	pendCount []int
	batchCap  []int
	// pendCol holds the columnar coalescing buffers, keyed like pend; merging
	// requires identical routing headers (SameHeader), and merged storage is
	// the pooled destination batch's — the source returns to the pool.
	pendCol []map[tuple.TableSet]*flow.ColBatch

	mu      sync.Mutex
	outputs []Output
	// errSet arms on the first setErr of a run; an atomic.Bool rather than a
	// sync.Once so Reset can rearm it for a pooled shell's next run.
	errSet atomic.Bool
	err    error
}

// defaultScale is the clock scale of an engine whose caller passes no clock —
// every engine outside this package's tests: one virtual second (of index
// latency or scan pacing) per wall millisecond.
const defaultScale = 0.001

// NewConcurrent prepares a concurrent run. clk nil means a fresh clock at
// defaultScale.
func NewConcurrent(r Routing, clk *clock.Real) *Concurrent {
	c := &Concurrent{
		r:        r,
		done:     make(chan struct{}),
		costEWMA: make([]atomic.Int64, len(r.Modules())),
	}
	c.SetClock(clk)
	return c
}

// setErr records the first error of the current run; later calls lose.
func (c *Concurrent) setErr(err error) {
	if c.errSet.CompareAndSwap(false, true) {
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
	}
}

// SetClock replaces the engine's clock before a run; nil means a fresh clock
// at defaultScale. A pooled shell gets a fresh clock per execution so virtual
// timestamps restart from zero, exactly as on a newly constructed engine.
func (c *Concurrent) SetClock(clk *clock.Real) {
	if clk == nil {
		clk = clock.NewReal(defaultScale)
	}
	c.clk = clk
}

// Reset returns a finished engine shell to its pre-run state so it can be
// pooled and run again: RunContext after Reset behaves exactly like the
// first RunContext on a fresh engine (the run-scoped scaffolding — inboxes,
// coalescing buffers, scratch — is retained and reopened rather than
// reallocated, which is the point of pooling). It must only be called after
// RunContext has returned, which guarantees every goroutine of the previous
// run has exited; the modules' own state (SteM dictionaries, AM dedup
// caches, policy learners) belongs to the Routing and is reset through it.
func (c *Concurrent) Reset() {
	// The previous run closed done; rearm it.
	c.done = make(chan struct{})
	c.inflight.Store(0)
	for i := range c.costEWMA {
		c.costEWMA[i].Store(0)
	}
	// The previous run's shutdown closed every inbox (possibly with dropped
	// batches still queued); rearm them empty.
	for _, ib := range c.inboxes {
		ib.reopen()
	}
	// A canceled run can abandon batches in the coalescing buffers; recycle
	// them so the pooled shell starts empty.
	for i := range c.pend {
		for key, b := range c.pend[i] {
			delete(c.pend[i], key)
			putBatch(b)
		}
		for key, cb := range c.pendCol[i] {
			delete(c.pendCol[i], key)
			flow.PutColBatch(cb)
		}
		c.pendCount[i] = 0
	}
	c.colRouter = nil
	c.OnOutput, c.OnOutputCols, c.OnService = nil, nil, nil
	c.outputs = nil
	c.err = nil
	c.errSet.Store(false)
}

// Now implements policy.Env.
func (c *Concurrent) Now() clock.Time { return c.clk.Now() }

// Backlog implements policy.Env.
func (c *Concurrent) Backlog(mod int) clock.Duration {
	par := c.r.Modules()[mod].Parallel()
	if par == 0 {
		return 0
	}
	waiting := c.pendCount[mod] + c.inboxes[mod].len()
	return clock.Duration(int64(waiting) * c.costEWMA[mod].Load() / int64(par))
}

// Run executes the query to completion and returns the results in output
// order. It is safe to call once; to run a shell again, call Reset first
// (and Router.Reset on the routing, which owns the module state).
func (c *Concurrent) Run() ([]Output, error) { return c.RunContext(context.Background()) }

// RunContext is Run under a cancellation context: when ctx is canceled (a
// per-query deadline, a disconnected client, a server shutting down) the
// eddy stops routing, the module workers stop, and the call returns the
// results produced so far plus an error wrapping ctx.Err(). Every goroutine
// the run started has exited by the time RunContext returns.
func (c *Concurrent) RunContext(ctx context.Context) ([]Output, error) {
	return c.run(ctx, c.r.Seeds(), nil)
}

// RunDeltaCols runs one incremental round over the module state earlier
// rounds built. The column batches — new rows, each batch unbuilt singletons
// of one table — enter in place of the routing's seeds and route and build as
// scan chunks do: each row takes a fresh timestamp from the router's
// persistent counter and probes match only strictly-older builds, so each
// cross-round result is produced once, by its last-arriving component. The
// engine owns the batches; the routing must be a ColRouter. Call it on a
// Reset shell (hooks re-set) WITHOUT resetting the Routing.
func (c *Concurrent) RunDeltaCols(ctx context.Context, cbs []*flow.ColBatch) ([]Output, error) {
	return c.run(ctx, nil, cbs)
}

// RunDelta is RunDeltaCols with the new rows boxed as singleton tuples; only
// the benchmark harness still calls it.
func (c *Concurrent) RunDelta(ctx context.Context, ts []*tuple.Tuple) ([]Output, error) {
	return c.run(ctx, ts, nil)
}

// run executes one round: row seeds (initial scan seeds or injected delta
// tuples) and column seeds (injected delta batches) enter the dataflow, and
// the call returns at quiescence.
func (c *Concurrent) run(ctx context.Context, seeds []*tuple.Tuple, cols []*flow.ColBatch) ([]Output, error) {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	mods := c.r.Modules()
	c.events = eventsPool.Get().(chan eddyEvent)
	// A shell that already ran (and was Reset) keeps its run-scoped
	// scaffolding — inboxes, coalescing buffers, scratch slices — and only
	// reopens it; that near-zero setup is what makes pooled shells worth
	// caching. The module list is a property of the Routing, so a reused
	// shell's layout always matches.
	fresh := len(c.inboxes) != len(mods)
	if fresh {
		c.inboxes = make([]*inbox, len(mods))
		c.pend = make([]map[tuple.TableSet]*flow.Batch, len(mods))
		c.pendCol = make([]map[tuple.TableSet]*flow.ColBatch, len(mods))
		c.colMod = make([]flow.ColModule, len(mods))
		c.rowMod = make([]flow.BatchModule, len(mods))
		c.pendCount = make([]int, len(mods))
		c.batchCap = make([]int, len(mods))
	}
	c.colRouter, _ = c.r.(ColRouter)
	var wg sync.WaitGroup
	for i, m := range mods {
		if fresh {
			c.pend[i] = make(map[tuple.TableSet]*flow.Batch)
			c.pendCol[i] = make(map[tuple.TableSet]*flow.ColBatch)
			c.inboxes[i] = newInbox()
			c.rowMod[i] = flow.Lift(m)
		}
		c.colMod[i] = nil
		if c.colRouter != nil {
			c.colMod[i], _ = m.(flow.ColModule)
		}
		// One inbox per module, shared by Parallel() workers (0, unbounded,
		// runs 64).
		workers := m.Parallel()
		if workers == 0 {
			workers = 64
		}
		c.batchCap[i] = 1
		if workers == 1 {
			c.batchCap[i] = c.BatchSize
		}
		c.inboxes[i].reopen()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go c.worker(i, &wg)
		}
	}

	live := len(seeds)
	for _, cb := range cols {
		live += cb.Rows()
	}
	c.inflight.Store(int64(live))
	if live > 0 {
		c.senders.Add(1)
		go func() {
			defer c.senders.Done()
			for _, s := range seeds {
				select {
				case c.events <- eddyEvent{b: getBatchOf(s)}:
				case <-c.done:
					return
				}
			}
			for _, cb := range cols {
				select {
				case c.events <- eddyEvent{b: getColShell(cb)}:
				case <-c.done:
					return
				}
			}
		}()

		// Background's Done channel is nil, so an un-cancelable run blocks
		// on this case forever — exactly the pre-context behavior.
		cancelCh := ctx.Done()

		canceled := func() {
			c.setErr(fmt.Errorf("eddy: run canceled with %d tuples in flight: %w",
				c.inflight.Load(), ctx.Err()))
		}

		// The eddy goroutine: the only caller of Route/Choose/Observe. Row
		// tuples are routed one by one as their event arrives.
	loop:
		for {
			var ev eddyEvent
			select {
			case ev = <-c.events:
			case <-cancelCh:
				// Checked here too so sustained event traffic cannot
				// starve cancellation.
				canceled()
				break loop
			default:
				// Nothing immediately pending: release the coalescing
				// buffers before blocking, so the tuples held there can
				// produce the events we are about to wait for.
				c.flushAll()
				if c.inflight.Load() == 0 {
					break loop
				}
				select {
				case ev = <-c.events:
				case <-cancelCh:
					canceled()
					break loop
				}
			}
			if ev.fb != nil {
				if ev.fb.Emitted >= 0 {
					c.r.Policy().Observe(*ev.fb)
					if c.OnService != nil {
						c.OnService(*ev.fb)
					}
				}
				fbPool.Put(ev.fb)
			} else if ev.deliverT != nil {
				c.enqueue(ev.deliverMod, ev.deliverT)
			} else if ev.deliverCol != nil {
				c.enqueueCol(ev.deliverMod, ev.deliverCol)
			} else if ev.b.Col != nil {
				// A columnar batch is already a batch: it routes as one unit
				// immediately, preserving its order in the event stream
				// relative to row events (an AM's scan chunks precede its
				// EOT; a SteM's build bounce precedes anything later).
				cb := ev.b.Col
				ev.b.Col = nil
				putBatch(ev.b)
				c.routeColBatch(cb)
			} else {
				c.routeRows(ev.b.Tuples)
				putBatch(ev.b)
			}
			if c.inflight.Load() == 0 {
				break loop
			}
		}
	}

	// Quiescent or canceled: wind the dataflow down without
	// leaking a single goroutine. Closing done releases the delay timers,
	// closing the inboxes releases the workers; this goroutine absorbs the
	// events still in flight (feedback from draining workers; stragglers from
	// the seeder and delayed emissions) until the workers and the tracked
	// senders have all exited. After that nothing can send anymore, so what
	// is left in the buffer is dropped and the channel — never closed — goes
	// back to the pool for whichever run starts next.
	close(c.done)
	for _, b := range c.inboxes {
		b.close()
	}
	quiet := make(chan struct{})
	go func() {
		wg.Wait()
		c.senders.Wait()
		close(quiet)
	}()
absorb:
	for {
		select {
		case <-c.events:
		case <-quiet:
			break absorb
		}
	}
	for len(c.events) > 0 {
		<-c.events
	}
	eventsPool.Put(c.events)
	c.events = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outputs, c.err
}

// routeRows routes the tuples of one row event, one Route call each,
// coalescing module-bound tuples into the per-module pending buffers. A
// routing panic fails the run and releases the tuples not yet routed.
func (c *Concurrent) routeRows(ts []*tuple.Tuple) {
	unrouted := int64(len(ts))
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight.Add(-unrouted)
		}
	}()
	for _, t := range ts {
		switch d := c.r.Route(t, c); {
		case d.Output:
			c.output(t, c.clk.Now())
			c.inflight.Add(-1)
		case d.Drop:
			c.inflight.Add(-1)
		case d.Delay > 0:
			c.deliverAfter(d.Delay, d.Module, t, nil)
		default:
			c.enqueue(d.Module, t)
		}
		unrouted--
	}
}

// output is where a result tuple leaves the dataflow: kept for the run's
// return value and streamed to OnOutput.
func (c *Concurrent) output(t *tuple.Tuple, now clock.Time) {
	c.mu.Lock()
	c.outputs = append(c.outputs, Output{T: t, At: now})
	c.mu.Unlock()
	if c.OnOutput != nil {
		c.OnOutput(t, now)
	}
}

// routeColBatch routes one columnar batch (eddy goroutine only): one
// decision covers every live row, applied without materializing any of them
// except on the output path of a run with no OnOutputCols, where rows become
// result tuples.
func (c *Concurrent) routeColBatch(cb *flow.ColBatch) {
	n := int64(cb.Rows())
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight.Add(-n)
		}
	}()
	d := c.colRouter.RouteCol(cb, c)
	switch {
	case d.Output && c.OnOutputCols != nil:
		c.OnOutputCols(cb, c.clk.Now())
		flow.PutColBatch(cb)
		c.inflight.Add(-n)
	case d.Output:
		now := c.clk.Now()
		for _, t := range cb.Materialize() {
			c.output(t, now)
		}
		flow.PutColBatch(cb)
		c.inflight.Add(-n)
	case d.Drop:
		flow.PutColBatch(cb)
		c.inflight.Add(-n)
	case d.Delay > 0:
		c.deliverAfter(d.Delay, d.Module, nil, cb)
	default:
		c.enqueueCol(d.Module, cb)
	}
}

// enqueue adds a tuple to a module's pending batch for the tuple's span,
// releasing the batch once it reaches the module's coalescing cap. Parallel
// modules have cap 1, so their tuples are pushed straight through and their
// worker pools keep overlapping service.
func (c *Concurrent) enqueue(mod int, t *tuple.Tuple) {
	if c.batchCap[mod] <= 1 {
		c.inboxes[mod].push(getBatchOf(t))
		return
	}
	p := c.pend[mod][t.Span]
	if p == nil {
		p = getBatch()
		c.pend[mod][t.Span] = p
	}
	p.Add(t)
	c.pendCount[mod]++
	if p.Len() >= c.batchCap[mod] {
		delete(c.pend[mod], t.Span)
		c.pendCount[mod] -= p.Len()
		c.inboxes[mod].push(p)
	}
}

// enqueueCol adds a columnar batch to a module's columnar coalescing buffers
// (eddy goroutine only). Modules without a columnar path get the rows
// materialized into the ordinary row enqueue.
func (c *Concurrent) enqueueCol(mod int, cb *flow.ColBatch) {
	switch {
	case c.colMod[mod] == nil:
		for _, t := range cb.Materialize() {
			c.enqueue(mod, t)
		}
		flow.PutColBatch(cb)
	case c.batchCap[mod] <= 1:
		c.pushCol(mod, cb)
	default:
		c.pendColAdd(mod, cb)
	}
}

// pendColAdd coalesces a columnar batch into the module's span buffer.
// Merging is only legal between identical routing headers; a header change
// (visit counts advanced, lineage flags set) releases the buffered batch and
// starts a fresh one. Merged rows move into the buffered batch's pooled
// vector storage and the source batch returns to the pool.
func (c *Concurrent) pendColAdd(mod int, cb *flow.ColBatch) {
	key := cb.Span
	p := c.pendCol[mod][key]
	if p != nil {
		if p.SameHeader(cb) {
			p.AppendAllFrom(cb)
			c.pendCount[mod] += cb.Rows()
			flow.PutColBatch(cb)
			if p.Rows() >= c.batchCap[mod] {
				delete(c.pendCol[mod], key)
				c.pendCount[mod] -= p.Rows()
				c.pushCol(mod, p)
			}
			return
		}
		delete(c.pendCol[mod], key)
		c.pendCount[mod] -= p.Rows()
		c.pushCol(mod, p)
	}
	if cb.Rows() >= c.batchCap[mod] {
		c.pushCol(mod, cb)
		return
	}
	c.pendCol[mod][key] = cb
	c.pendCount[mod] += cb.Rows()
}

// pushCol delivers a columnar batch to a module's inbox inside a pooled
// row-batch shell (the inbox currency stays *flow.Batch).
func (c *Concurrent) pushCol(mod int, cb *flow.ColBatch) {
	c.inboxes[mod].push(getColShell(cb))
}

// flushModule releases every non-empty pending batch of one module, columnar
// buffers first: an AM's scan chunks are columnar and its EOT is a row, so
// this order keeps the chunks ahead of the EOT in the SteM's inbox — a SteM
// that saw the EOT first would claim completeness over rows it has not built
// (a Theorem 2 loss).
func (c *Concurrent) flushModule(mod int) {
	for key, p := range c.pendCol[mod] {
		delete(c.pendCol[mod], key)
		c.pushCol(mod, p)
	}
	for key, p := range c.pend[mod] {
		delete(c.pend[mod], key)
		c.inboxes[mod].push(p)
	}
	c.pendCount[mod] = 0
}

// flushAll releases every non-empty pending batch.
func (c *Concurrent) flushAll() {
	for mod := range c.pend {
		c.flushModule(mod)
	}
}

// worker services a module's inbox, possibly beside Parallel()-1 siblings.
// Each batch gets the widest service call the module offers this run.
func (c *Concurrent) worker(mod int, wg *sync.WaitGroup) {
	defer wg.Done()
	colMod, rowMod := c.colMod[mod], c.rowMod[mod]
	ib := c.inboxes[mod]
	for {
		b, ok := ib.pop()
		if !ok {
			return
		}
		// Captured before the module runs: columnar modules filter the
		// selection vector in place (predicate misses, duplicate builds,
		// matched/unmatched splits), so the post-service b.Len() undercounts
		// what entered and would leak the difference in the in-flight counter.
		in := b.Len()
		var rows []flow.Emission
		var cols []flow.ColEmission
		var cost clock.Duration
		start := c.clk.Now()
		if colMod != nil {
			rows, cols, cost = colMod.ProcessColBatch(b, start)
		} else {
			rows, cost = rowMod.ProcessBatch(b, start)
		}
		c.finish(mod, b, in, rows, cols, start, cost)
	}
}

// finish applies the post-service accounting of one batch, row or columnar:
// hold the service to its declared cost, adjust the in-flight counter, report
// policy feedback, and send the emissions back to the eddy. The cost a module
// returns is a floor on its service time, begun at start: a declared source
// latency (an index AM's LATENCY) elapses in full, while work that already
// took longer than its cost — every in-memory build, probe, filter and scan
// at the default scale — arms no timer. What the policy, Backlog and the trace
// collector see is the service time that elapsed on the engine clock. All
// counters are row counts (a columnar emission contributes its live rows;
// inRows is the input batch's, taken before service). Columnar emissions enter
// the event stream before row emissions (an AM's scan chunks must precede its
// row EOT, which flushModule then keeps behind them in the SteM's inbox), and
// the input batch's columnar payload returns to the pool unless the module
// re-emitted it (a bounce).
func (c *Concurrent) finish(mod int, b *flow.Batch, inRows int, rowEms []flow.Emission, colEms []flow.ColEmission, start clock.Time, cost clock.Duration) {
	cb := b.Col
	now := c.clk.Now()
	if rest := cost - clock.Duration(now-start); rest > 0 {
		// Interruptibly: a canceled run must not wait out the remainder.
		c.clk.WaitOrDone(rest, c.done)
		now = c.clk.Now()
	}
	service := clock.Duration(now - start)
	c.observeCost(mod, service, inRows)

	outRows := len(rowEms)
	newRows := 0
	if len(rowEms) > 0 {
		newRows = countNew(b, rowEms)
	}
	bounced := false
	for _, em := range colEms {
		outRows += em.B.Rows()
		if em.B == cb {
			bounced = true
		} else {
			newRows += em.B.Rows()
		}
	}
	// Account for the net dataflow change before emitting, so the
	// counter can never dip to zero while emissions are pending.
	delta := int64(outRows) - int64(inRows)
	if delta > 0 {
		c.inflight.Add(delta)
	}
	// Batches are span-homogeneous (the eddy coalesces per span), so one
	// span signs the whole batch; Visits lets learners normalize the batch
	// totals back to per-visit values.
	var sig uint64
	if cb != nil {
		sig = uint64(cb.Span)
	} else {
		sig = uint64(b.Tuples[0].Span)
	}
	fb := policy.Feedback{
		Module: mod, Sig: sig,
		Outputs: newRows, Emitted: outRows, Cost: service, Now: now,
		Visits: inRows,
	}
	if cb != nil && !bounced {
		flow.PutColBatch(cb)
	}
	b.Col = nil
	putBatch(b)

	// Feedback goes ahead of the emissions it describes: those are already
	// counted in flight, so the run cannot quiesce before the eddy has seen
	// it. (Sent last, it is lost whenever downstream work finishes first.)
	c.events <- eddyEvent{fb: newFeedback(fb)}
	for _, em := range colEms {
		c.events <- eddyEvent{b: getColShell(em.B)}
	}
	var ready *flow.Batch
	var delayed []flow.Emission
	for _, em := range rowEms {
		if em.Delay > 0 {
			delayed = append(delayed, em)
			continue
		}
		if ready == nil {
			ready = getBatch()
		}
		ready.Add(em.T)
	}
	if ready != nil {
		c.events <- eddyEvent{b: ready}
	}
	if len(delayed) > 0 {
		c.sendDelayed(delayed)
	}
	if delta < 0 {
		if c.inflight.Add(delta) == 0 {
			// Wake the eddy loop so it observes quiescence; Emitted -1
			// marks it as a pure wake-up, not real feedback.
			c.events <- eddyEvent{fb: newFeedback(policy.Feedback{Module: mod, Emitted: -1})}
		}
	}
}

// sendDelayed hands one service's delayed emissions back to the eddy, each
// once its modeled delay has elapsed, from ONE tracked sender goroutine that
// walks them in non-decreasing delay order (ties keep emission order) and
// gives up when the run winds down first. One sender is what keeps a paced
// scan's EOT behind its own rows: a goroutine and timer per emission let the
// EOT — due with the last row — reach the eddy first, and a SteM that looks
// complete consumes probes whose matches have not been built yet.
func (c *Concurrent) sendDelayed(ems []flow.Emission) {
	slices.SortStableFunc(ems, func(a, b flow.Emission) int { return cmp.Compare(a.Delay, b.Delay) })
	start := c.clk.Now()
	c.senders.Add(1)
	go func() {
		defer c.senders.Done()
		for _, em := range ems {
			if !c.clk.WaitOrDone(em.Delay-clock.Duration(c.clk.Now()-start), c.done) {
				return
			}
			select {
			case c.events <- eddyEvent{b: getBatchOf(em.T)}:
			case <-c.done:
				return
			}
		}
	}()
}

// deliverAfter hands an already-routed tuple or columnar batch back to the
// eddy goroutine, to enqueue for module mod, once the router-decided delay d
// has elapsed — on a tracked sender goroutine that gives up when the run
// winds down first. (It takes the payload as plain arguments, not a func: a
// closure per delayed delivery is a heap allocation.)
func (c *Concurrent) deliverAfter(d clock.Duration, mod int, t *tuple.Tuple, cb *flow.ColBatch) {
	c.senders.Add(1)
	go func() {
		defer c.senders.Done()
		if !c.clk.WaitOrDone(d, c.done) {
			return
		}
		select {
		case c.events <- eddyEvent{deliverT: t, deliverCol: cb, deliverMod: mod}:
		case <-c.done:
		}
	}()
}

// countNew counts the emissions that are not batch inputs bouncing back —
// the productive output of the batch. Small batches use a linear scan; big
// ones build a one-shot identity set so the count stays O(batch+emissions).
func countNew(b *flow.Batch, ems []flow.Emission) int {
	outputs := 0
	if b.Len() <= 8 {
		for _, em := range ems {
			if !b.Contains(em.T) {
				outputs++
			}
		}
		return outputs
	}
	in := make(map[*tuple.Tuple]struct{}, b.Len())
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
func (c *Concurrent) observeCost(mod int, cost clock.Duration, n int) {
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
