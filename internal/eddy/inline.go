// inline.go is the concurrent engine's inline driver. For a small round over
// in-memory tables, module service is a few microseconds of work, and handing
// it to a worker goroutine costs more than the work. So the driver runs the
// core on the caller's goroutine: it routes the seeds, then serves jobs and
// delivers events in turn until quiescence, with no goroutine, channel, lock
// or condition variable. In Telegraph every module is a thread and replies
// arrive in any order, so one thread serving the modules one job at a time is
// one more legal interleaving. The routing, the Table 2 checks and the
// feedback are the core's, unchanged, and the seeded interleaver's checks
// hold on this schedule too (TestInline).
package eddy

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/tuple"
)

// inlineRows is the most rows a round may bring in and still run inline. Past
// it, module service pipelined across cores wins. Measured with every round
// inline: BenchmarkAdaptivityTax's warm J(3) on 2 vCPUs, median ms per run
// over 10 alternating pairs, goroutines → inline, benefitcost and fixed:
// 1,312 rows 0.47 → 0.43 and 0.54 → 0.41; 2,625 rows 1.08 → 1.24 and
// 1.29 → 1.22 (parity); 3,937 rows 1.48 → 2.01 and 1.61 → 1.99; 21,000 rows
// 5.8 → 9.9 and 5.6 → 9.0. The benchmark's join_heavy J(k), 5,200 rows, read
// op_p50_ms 2.43 → 3.10 over 10 pairs.
const inlineRows = 2000

// inline is the inline driver's state. It lives on the shell, and every run
// leaves its queues empty with their capacity kept, so a pooled shell's rounds
// allocate no queue.
type inline struct {
	*Concurrent
	ctx context.Context
	// jobs holds every module's queued jobs in one FIFO, which keeps each
	// module's jobs FIFO too; head is the first unserved one.
	jobs []queuedJob
	head int
	// evs is the undelivered posts as a stack of sender segments: each
	// service's posts, reversed once it returns, so the last one pushed is
	// delivered first. The newest service's posts thus go first, each
	// service's in the order it posted them.
	evs []eddyEvent
	// later holds the delayed posts in due order.
	later []dueEvent
	// scr is the driver's emission scratch: one service runs at a time.
	scr emissions
}

type queuedJob struct {
	mod int
	j   job
}

type dueEvent struct {
	ev  eddyEvent
	due clock.Time
}

func (d *inline) post(ev eddyEvent) { d.evs = append(d.evs, ev) }

func (d *inline) queue(mod int, j job) { d.jobs = append(d.jobs, queuedJob{mod, j}) }

// postAfter files each event at its due time, after every event due no later:
// one call's events are in delay order, so they stay in slice order.
func (d *inline) postAfter(evs []delayed) {
	now := d.clk.Now()
	for _, x := range evs {
		due := now.Add(x.after)
		i := len(d.later)
		for i > 0 && d.later[i-1].due > due {
			i--
		}
		d.later = slices.Insert(d.later, i, dueEvent{x.ev, due})
	}
}

// run executes one round on the caller's goroutine. Between steps it checks
// ctx.Err(), not ctx.Done(): the first Done call on a context allocates its
// channel, so only a wait takes it.
func (d *inline) run(ctx context.Context, seeds []*tuple.Tuple, cols []*flow.ColBatch) {
	d.ctx, d.s = ctx, d
	d.begin(seeds, cols)
	for !d.quiescent() {
		if err := ctx.Err(); err != nil {
			d.canceled(err)
			break
		}
		if !d.step() {
			break
		}
	}
	d.empty()
}

// step takes the next step of the schedule, depth first: serve the oldest
// queued job; else deliver the newest service's next post; else deliver the
// first delayed post once it is due, sleeping on the engine clock until it is.
// A delayed post therefore reaches the eddy after every immediate post of
// every earlier service. step returns false when the run cannot go on: a
// module panicked, or rows are counted in flight with nothing left to run.
func (d *inline) step() bool {
	switch {
	case d.head < len(d.jobs):
		q := d.jobs[d.head]
		d.jobs[d.head] = queuedJob{}
		if d.head++; d.head == len(d.jobs) {
			d.jobs, d.head = d.jobs[:0], 0
		}
		return d.serve(q.mod, q.j)
	case len(d.evs) > 0:
		last := len(d.evs) - 1
		ev := d.evs[last]
		d.evs[last] = eddyEvent{}
		d.evs = d.evs[:last]
		d.deliver(ev)
	case len(d.later) > 0:
		if wait := clock.Duration(d.later[0].due - d.clk.Now()); wait > 0 {
			d.wait(wait)
			return true
		}
		ev := d.later[0].ev
		d.later = slices.Delete(d.later, 0, 1)
		d.deliver(ev)
	default:
		d.setErr(fmt.Errorf("eddy: inline run stalled with %d tuples in flight", d.inflight))
		return false
	}
	return true
}

// serve services one job and turns its posts into a segment of the stack. A
// module that panics fails the run with an error naming it.
func (d *inline) serve(mod int, j job) bool {
	start := len(d.evs)
	if err := d.tryService(mod, j, &d.scr); err != nil {
		d.setErr(err)
		return false
	}
	slices.Reverse(d.evs[start:])
	return true
}

// empty readies the queues for the shell's next run, keeping their capacity.
// A canceled or failed run leaves batches in them; they are dropped, as a
// closed inbox drops its backlog.
func (d *inline) empty() {
	clear(d.jobs)
	clear(d.evs)
	clear(d.later)
	d.jobs, d.head, d.evs, d.later = d.jobs[:0], 0, d.evs[:0], d.later[:0]
	d.ctx = nil
}
