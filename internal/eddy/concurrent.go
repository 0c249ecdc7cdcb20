// concurrent.go is the concurrent engine's shell and its goroutine driver;
// both of its drivers only schedule the core (engine.go). A round whose
// modules declare time, or which brings in more than inlineRows rows, runs
// on goroutines: every module runs in its own goroutines (a worker pool sized
// by Parallel()) behind an unbounded inbox, and one eddy goroutine consumes
// the events channel — the paper's Telegraph setting, where "each module runs
// asynchronously in a separate thread". Any other round runs on the caller's
// goroutine (inline.go). Time is a real clock, scaled (defaultScale) so a
// declared source latency of the paper's multi-minute runs elapses in
// milliseconds.
//
// The engine is not deterministic (that is the simulator's job); it is the
// deployment-shaped engine, and the race-exercising tests run the same
// correctness oracle against it, while the interleaver tests drive the same
// core through chosen schedules.
package eddy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/tuple"
)

// inbox is an unbounded FIFO of jobs; unboundedness removes the eddy↔module
// send cycle that could otherwise deadlock bounded channels. items is used as
// a ring-ish queue: pop consumes from head instead of re-slicing, and the
// slice rewinds to its full capacity whenever the queue drains, so a pooled
// shell's steady-state run stops allocating queue nodes.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []job
	head   int
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) push(j job) {
	b.mu.Lock()
	if b.head == len(b.items) && b.head > 0 {
		b.items = b.items[:0]
		b.head = 0
	}
	b.items = append(b.items, j)
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *inbox) pop() (job, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.items) && !b.closed {
		b.cond.Wait()
	}
	// Closed means the run is over (quiescent or canceled): drop any backlog
	// rather than service it, so cancellation stops workers promptly. On the
	// quiescent path the queues are necessarily empty (queued tuples are
	// counted in flight).
	if b.closed {
		return job{}, false
	}
	j := b.items[b.head]
	b.items[b.head] = job{}
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	return j, true
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reopen rearms a closed inbox for a pooled shell's next run, dropping any
// jobs the previous run's shutdown left behind (capacity is kept, batch
// references are not). Callers must guarantee no worker is still blocked in
// pop (RunContext has returned).
func (b *inbox) reopen() {
	b.mu.Lock()
	clear(b.items)
	b.items = b.items[:0]
	b.head = 0
	b.closed = false
	b.mu.Unlock()
}

// eventsPool holds the process's idle events channels. A channel belongs to
// one run — wind-down leaves it empty with every sender exited — so a built
// or pooled engine holds none of these buffers (room for 1,024 service
// reports before a worker blocks on the eddy goroutine).
var eventsPool = sync.Pool{New: func() any { return make(chan eddyEvent, 1024) }}

// Concurrent drives the core on a real clock, inline or on goroutines.
type Concurrent struct {
	engine
	clk *clock.Real
	in  inline
	// The goroutine driver's state. done is made per goroutine run and closed
	// when it winds down (quiescence or cancellation); service floors and
	// delayed senders select on it so a canceled run never waits out pending
	// virtual sleeps. inboxes are made the first time the shell runs on
	// goroutines.
	events chan eddyEvent
	done   chan struct{}
	// senders tracks the delayed senders, the only goroutines besides the
	// module workers that send on events; wind-down absorbs events until they
	// and the workers have exited, so the run leaves zero goroutines behind
	// and an empty events channel.
	senders sync.WaitGroup
	// inboxes holds one inbox per module, shared by all its workers.
	inboxes []*inbox
	// scr holds each worker's emission scratch, in start order.
	scr []emissions
}

// defaultScale is the clock scale of an engine whose caller passes no clock —
// every engine outside this package's tests: one virtual second (of index
// latency or scan pacing) per wall millisecond.
const defaultScale = 0.001

// NewConcurrent prepares a concurrent run. clk nil means a fresh clock at
// defaultScale.
func NewConcurrent(r Routing, clk *clock.Real) *Concurrent {
	c := &Concurrent{}
	c.r, c.s, c.in.Concurrent = r, c, c
	c.SetClock(clk)
	return c
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
// inline queues, scratch — is retained and reopened rather than reallocated,
// which is the point of pooling). It must only be called after RunContext
// has returned, which guarantees every goroutine of the previous run has
// exited; the modules' own state (SteM dictionaries, AM dedup caches, policy
// learners) belongs to the Routing and is reset through it.
func (c *Concurrent) Reset() {
	for _, ib := range c.inboxes {
		ib.reopen()
	}
	c.reset()
}

// RunContext executes the query to completion and returns the results in
// output order. It is safe to call once; to run a shell again, call Reset
// first (and Router.Reset on the routing, which owns the module state). When
// ctx is canceled (a per-query deadline, a disconnected client, a server
// shutting down) the eddy stops routing, the module workers stop, and the
// call returns the results produced so far plus an error wrapping ctx.Err().
// Every goroutine the run started has exited by the time RunContext returns.
func (c *Concurrent) RunContext(ctx context.Context) ([]Output, error) {
	return c.run(ctx, c.r.Seeds(), nil, -1)
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
	rows := 0
	for _, cb := range cbs {
		rows += cb.Rows()
	}
	return c.run(ctx, nil, cbs, rows)
}

// RunDelta is RunDeltaCols with the new rows boxed as singleton tuples; only
// the benchmark harness still calls it.
func (c *Concurrent) RunDelta(ctx context.Context, ts []*tuple.Tuple) ([]Output, error) {
	return c.run(ctx, ts, nil, len(ts))
}

// inlineRounds and goroutineRounds count the process's engine rounds by the
// driver that ran them.
var inlineRounds, goroutineRounds atomic.Uint64

// Rounds reports how many engine rounds, delta rounds included, the process
// has run inline and on goroutines.
func Rounds() (inline, goroutines uint64) { return inlineRounds.Load(), goroutineRounds.Load() }

// inlines reports whether a round bringing in rows (-1: a full run, whose
// rows are the scans' source rows) runs inline: the routing is a Router
// whose modules declare no time, and the rows are at most inlineRows.
func (c *Concurrent) inlines(rows int) bool {
	r, ok := c.r.(*Router)
	if !ok || r.scanRows < 0 {
		return false
	}
	if rows < 0 {
		rows = r.scanRows
	}
	return rows <= inlineRows
}

// run executes one round on the driver the round calls for. On goroutines,
// the eddy routes the seeds, then consumes events until the core is
// quiescent or ctx is canceled, then winds down.
func (c *Concurrent) run(ctx context.Context, seeds []*tuple.Tuple, cols []*flow.ColBatch, rows int) ([]Output, error) {
	if c.inlines(rows) {
		inlineRounds.Add(1)
		c.in.run(ctx, seeds, cols)
		return c.outputs, c.err
	}
	goroutineRounds.Add(1)
	mods := c.r.Modules()
	c.s, c.done = c, make(chan struct{})
	c.events = eventsPool.Get().(chan eddyEvent)
	if len(c.inboxes) != len(mods) {
		c.inboxes = make([]*inbox, len(mods))
		for i := range c.inboxes {
			c.inboxes[i] = newInbox()
		}
	}
	for _, ib := range c.inboxes {
		ib.reopen()
	}
	c.begin(seeds, cols)
	total := 0
	for _, m := range mods {
		total += workers(m)
	}
	if len(c.scr) != total {
		c.scr = make([]emissions, total)
	}
	var wg sync.WaitGroup
	k := 0
	for i, m := range mods {
		for range workers(m) {
			wg.Add(1)
			go c.worker(i, &c.scr[k], &wg)
			k++
		}
	}

	// The eddy waits on events and cancellation only: it holds nothing that
	// an idle moment could release. Background's Done channel is nil, so an
	// un-cancelable run never takes that case.
	cancelCh := ctx.Done()
loop:
	for !c.quiescent() {
		select {
		case ev := <-c.events:
			c.deliver(ev)
			if ev.err != nil {
				break loop // a module panicked: the run has failed
			}
		case <-cancelCh:
			c.canceled(ctx.Err())
			break loop
		}
	}

	// Wind the dataflow down without leaking a single goroutine. Closing done
	// releases the floors and the delayed senders, closing the inboxes
	// releases the workers; this goroutine absorbs the events still in flight
	// (stragglers of a canceled run) until the workers and the senders have
	// all exited. After that nothing can send anymore, so what is left in the
	// buffer is dropped and the channel — never closed — goes back to the
	// pool for whichever run starts next.
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
	c.events, c.done = nil, nil
	return c.outputs, c.err
}

// canceled fails the run on its context's error.
func (c *Concurrent) canceled(err error) {
	c.setErr(fmt.Errorf("eddy: run canceled with %d tuples in flight: %w", c.inflight, err))
}

// workers is how many workers share module m's inbox: Parallel() of them, and
// 64 for an unbounded module.
func workers(m flow.Module) int {
	if n := m.Parallel(); n > 0 {
		return n
	}
	return 64
}

// worker services a module's inbox, possibly beside Parallel()-1 siblings,
// with emission scratch of its own. A module that panics fails the run: the
// worker hands the eddy the error and the job's rows, and serves no more (the
// module may have unwound holding its lock); the eddy winds the run down.
func (c *Concurrent) worker(mod int, scr *emissions, wg *sync.WaitGroup) {
	defer wg.Done()
	ib := c.inboxes[mod]
	for {
		j, ok := ib.pop()
		if !ok {
			return
		}
		in := j.b.Len()
		if err := c.tryService(mod, j, scr); err != nil {
			c.post(eddyEvent{err: err, lost: in})
			return
		}
	}
}

func (c *Concurrent) post(ev eddyEvent) { c.events <- ev }

func (c *Concurrent) queue(mod int, j job) { c.inboxes[mod].push(j) }

func (c *Concurrent) now() clock.Time { return c.clk.Now() }

// floor waits out the rest of a service's cost, interruptibly: a canceled
// run must not wait out the remainder.
func (c *Concurrent) floor(start clock.Time, cost clock.Duration) clock.Time {
	now := c.clk.Now()
	if rest := cost - clock.Duration(now-start); rest > 0 {
		c.wait(rest)
		now = c.clk.Now()
	}
	return now
}

// wait sleeps d on the engine clock, giving up when the goroutine run winds
// down or the inline run's context ends.
func (c *Concurrent) wait(d clock.Duration) {
	if c.done != nil {
		c.clk.WaitOrDone(d, c.done)
	} else {
		c.clk.WaitOrDone(d, c.in.ctx.Done())
	}
}

// postAfter sends evs from one tracked sender goroutine, each once its delay
// past the call has elapsed, giving up when the run winds down first.
func (c *Concurrent) postAfter(evs []delayed) {
	start := c.clk.Now()
	c.senders.Add(1)
	go func() {
		defer c.senders.Done()
		for _, d := range evs {
			if !c.clk.WaitOrDone(d.after-clock.Duration(c.clk.Now()-start), c.done) {
				return
			}
			select {
			case c.events <- d.ev:
			case <-c.done:
				return
			}
		}
	}()
}
