package eddy

// The seeded interleaver drives the concurrent engine's core (engine.go) from
// one goroutine, and a PRNG picks every next step, so an interleaving of the
// paper's asynchronous modules is chosen rather than hoped for, and a
// failing seed replays exactly. Every post to the eddy has a sender: a
// service's posts are one sender, each postAfter call another. Per-sender
// order is kept; cross-sender order is the PRNG's. A service's delayed sender
// starts once the eddy has consumed that service's posts, as the goroutine
// driver's starts after the service's channel sends. Time is virtual: service
// floors advance it, a delayed post is taken only once due, and when nothing
// else is runnable — or when the PRNG says so — time jumps to the next due
// post. Service costs, Backlog and policy scores therefore replay too.

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
)

var interleaveSeeds = flag.Int("interleave.seeds", 500, "seeds per configuration for TestInterleave and TestInline")

// fifo is one sender's posts to the eddy, in order. due holds each event's
// due time for a delayed sender (nil otherwise); after, when set, is the
// sender whose posts must all be consumed first.
type fifo struct {
	evs   []eddyEvent
	due   []clock.Time
	after *fifo
}

// interleaver is the test scheduler: it implements sched and runs the
// steps the PRNG picks.
type interleaver struct {
	e       *engine
	rng     *rand.Rand
	clock   clock.Time
	senders []*fifo
	inbox   [][]job
	cur     *fifo // the sender of the service step in progress
	steps   int
	tally
}

// tally counts, per module, the services a driver ran and the rows they took
// (served, rows), and the feedback the eddy consumed for them (fbs, visits).
type tally struct{ served, rows, fbs, visits []int }

func newTally(mods int) tally {
	return tally{make([]int, mods), make([]int, mods), make([]int, mods), make([]int, mods)}
}

func (tl *tally) serve(mod int, j job) {
	tl.served[mod]++
	tl.rows[mod] += j.b.Len()
}

func (tl *tally) observe(fb policy.Feedback) {
	tl.fbs[fb.Module]++
	tl.visits[fb.Module] += fb.Visits
}

// unbalanced describes every module whose feedback does not match its
// services one for one, "" for none.
func (tl *tally) unbalanced() string {
	var s string
	for m := range tl.served {
		if tl.fbs[m] != tl.served[m] || tl.visits[m] != tl.rows[m] {
			s += fmt.Sprintf(" module %d: %d feedback reports over %d rows for %d services of %d rows;",
				m, tl.fbs[m], tl.visits[m], tl.served[m], tl.rows[m])
		}
	}
	return s
}

// eventRows is the rows an undelivered event holds: a batch's, or the
// Visits − Emitted of a feedback (rows a finished service took in and the
// eddy has not yet seen leave).
func eventRows(ev eddyEvent) int64 {
	if ev.fb != nil {
		return int64(ev.fb.Visits - ev.fb.Emitted)
	}
	return int64(ev.b.Len())
}

func (il *interleaver) post(ev eddyEvent) { il.cur.evs = append(il.cur.evs, ev) }

func (il *interleaver) postAfter(evs []delayed) {
	f := &fifo{after: il.cur}
	for _, d := range evs {
		f.evs = append(f.evs, d.ev)
		f.due = append(f.due, il.clock.Add(d.after))
	}
	il.senders = append(il.senders, f)
}

func (il *interleaver) queue(mod int, j job) { il.inbox[mod] = append(il.inbox[mod], j) }

func (il *interleaver) floor(start clock.Time, cost clock.Duration) clock.Time {
	il.clock = max(il.clock, start.Add(cost))
	return il.clock
}

func (il *interleaver) now() clock.Time { return il.clock }

// The step kinds: the eddy takes the head of one sender's posts, a module
// serves the head of its inbox, the eddy checks for quiescence, or time jumps
// to the next due post.
const (
	stepDeliver = iota
	stepServe
	stepCheck
	stepTick
)

type step struct{ kind, i int }

// run drives the core from begin to quiescence and returns the results. After
// every step, each row counted in flight must be somewhere the interleaver can
// see it (located): the eddy holds none itself.
func (il *interleaver) run(seeds []*tuple.Tuple) ([]Output, error) {
	e := il.e
	e.begin(seeds, nil)
	var cands []step
	for ; il.steps < 5_000_000; il.steps++ {
		cands = cands[:0]
		wake := clock.Time(math.MaxInt64)
		for i, f := range il.senders {
			switch {
			case f.after != nil && len(f.after.evs) > 0:
			case f.due != nil && f.due[0] > il.clock:
				wake = min(wake, f.due[0])
			default:
				cands = append(cands, step{stepDeliver, i})
			}
		}
		for m, q := range il.inbox {
			if len(q) > 0 {
				cands = append(cands, step{stepServe, m})
			}
		}
		if wake != math.MaxInt64 {
			cands = append(cands, step{kind: stepTick})
		}
		if len(cands) == 0 && !e.quiescent() {
			return nil, fmt.Errorf("stalled after %d steps with %d rows in flight", il.steps, e.inflight)
		}
		cands = append(cands, step{kind: stepCheck})
		switch s := cands[il.rng.Intn(len(cands))]; s.kind {
		case stepDeliver:
			f := il.senders[s.i]
			ev := f.evs[0]
			f.evs = f.evs[1:]
			if f.due != nil {
				il.clock = max(il.clock, f.due[0])
				f.due = f.due[1:]
			}
			if len(f.evs) == 0 {
				il.senders = slices.Delete(il.senders, s.i, s.i+1)
			}
			e.deliver(ev)
		case stepServe:
			j := il.inbox[s.i][0]
			il.inbox[s.i] = il.inbox[s.i][1:]
			il.serve(s.i, j)
			f := &fifo{}
			il.cur = f
			e.service(s.i, j)
			il.cur = nil
			il.senders = append(il.senders, f)
		case stepTick:
			il.clock = wake
		case stepCheck:
			if e.quiescent() {
				return e.outputs, e.err
			}
		}
		if n := il.located(); n != e.inflight {
			return nil, fmt.Errorf("step %d: %d rows counted in flight, %d located", il.steps, e.inflight, n)
		}
	}
	return nil, fmt.Errorf("no quiescence after %d steps", il.steps)
}

// located counts the rows in the places a live row can be: an unconsumed
// event (a feedback's Visits − Emitted among them) or an inbox.
func (il *interleaver) located() int64 {
	var n int64
	for _, f := range il.senders {
		for _, ev := range f.evs {
			n += eventRows(ev)
		}
	}
	for _, q := range il.inbox {
		for _, j := range q {
			n += int64(j.b.Len())
		}
	}
	return n
}

// leftovers describes what a returned run left behind, "" for nothing.
func (il *interleaver) leftovers() string {
	var s string
	if il.e.inflight != 0 {
		s += fmt.Sprintf(" %d rows counted in flight;", il.e.inflight)
	}
	for _, f := range il.senders {
		if len(f.evs) > 0 {
			s += fmt.Sprintf(" %d unconsumed events;", len(f.evs))
		}
	}
	for m := range il.inbox {
		if len(il.inbox[m]) > 0 {
			s += fmt.Sprintf(" module %d holds %d queued jobs;", m, len(il.inbox[m]))
		}
	}
	return s + il.unbalanced()
}

// interleaveConfig is one point of the interleaver's configuration space.
type interleaveConfig struct {
	name string
	// pace is the scans' inter-arrival time (0: unpaced, columnar chunks).
	pace clock.Duration
	// skip is the share of seeds run under Section 3.5's SkipBuild, the one
	// mode where a result lost to an early EOT is not regenerated by a later
	// build — so there, an ordering bug is a wrong answer.
	skip float64
}

var interleaveConfigs = []interleaveConfig{
	{name: "symmetric"},
	{name: "skipbuild", skip: 1},
	{name: "paced", pace: clock.Millisecond, skip: 0.5},
}

// interleaveQuery is a small J(3) chain R(k,a) ⋈ S(x,y) ⋈ T(z,w) on R.a = S.x
// and S.y = T.z, with seeded distinct rows over a four-value join domain.
func interleaveQuery(rng *rand.Rand, pace clock.Duration) *query.Q {
	var tabs []*schema.Table
	var ams []query.AMDecl
	for i, name := range []string{"R", "S", "T"} {
		tab := schema.MustTable(name, schema.IntCol("a"), schema.IntCol("b"))
		seen := make(map[[2]int64]bool)
		var rows []tuple.Row
		for range 1 + rng.Intn(24) {
			k := [2]int64{int64(rng.Intn(4)), int64(rng.Intn(4))}
			if !seen[k] {
				seen[k] = true
				rows = append(rows, intRow(k[0], k[1]))
			}
		}
		tabs = append(tabs, tab)
		ams = append(ams, scanAM(i, source.MustTable(tab, rows), pace*clock.Duration(1+rng.Intn(3))))
	}
	return query.MustNew(tabs, []pred.P{pred.EquiJoin(0, 1, 1, 0), pred.EquiJoin(1, 1, 2, 0)}, ams)
}

// interleaveCase builds one seed of a configuration: its query, and a router
// under a seeded policy, with SkipBuild for cfg.skip of the seeds. The rng
// goes on to drive the schedule.
func interleaveCase(cfg interleaveConfig, seed int64) (*query.Q, *Router, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(seed))
	q := interleaveQuery(rng, cfg.pace)
	var opts Options
	switch rng.Intn(3) {
	case 0:
		opts.Policy = policy.NewFixed()
	case 1:
		opts.Policy = policy.NewLottery(rng.Int63())
	default:
		opts.Policy = policy.NewBenefitCost(rng.Int63())
	}
	if rng.Float64() < cfg.skip {
		opts.SkipBuild, opts.SkipBuildTable = true, rng.Intn(3)
	}
	r, err := NewRouter(q, opts)
	return q, r, rng, err
}

// checkOutcome checks a run's results against the oracle (Theorems 1–2) and
// the router for stuck tuples.
func checkOutcome(q *query.Q, r *Router, outs []Output) error {
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	if missing, extra := oracle.Diff(oracle.Compute(q), got); len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("%d results missing, %d extra (SkipBuild %v)", len(missing), len(extra), r.opts.SkipBuild)
	}
	if r.Stuck() != 0 {
		return fmt.Errorf("%d tuples stuck", r.Stuck())
	}
	return nil
}

// interleaveOnce runs one seed of a configuration and checks it: the result
// multiset against the oracle, no stuck tuple, nothing left in flight, and
// every service's feedback consumed exactly once.
func interleaveOnce(cfg interleaveConfig, seed int64) (*interleaver, []Output, error) {
	q, r, rng, err := interleaveCase(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	n := len(r.Modules())
	e := &engine{r: r}
	il := &interleaver{e: e, rng: rng, inbox: make([][]job, n), tally: newTally(n)}
	e.s = il
	e.OnService = il.observe
	outs, err := il.run(r.Seeds())
	if err != nil {
		return il, nil, err
	}
	if err = checkOutcome(q, r, outs); err == nil {
		if left := il.leftovers(); left != "" {
			err = fmt.Errorf("returned with%s", left)
		}
	}
	return il, outs, err
}

// soak runs -interleave.seeds seeds (500 by default) of every configuration
// through once, each seed a subtest of test whose failure prints the command
// that replays it.
func soak(t *testing.T, test string, once func(interleaveConfig, int64) error) {
	for _, cfg := range interleaveConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := range *interleaveSeeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					if err := once(cfg, int64(seed)); err != nil {
						replay := fmt.Sprintf("go test -run '%s/%s/seed=%d$' ./internal/eddy", test, cfg.name, seed)
						if seed >= 500 {
							replay += fmt.Sprintf(" -interleave.seeds=%d", seed+1)
						}
						t.Fatalf("%v\nreplay: %s", err, replay)
					}
				})
			}
		})
	}
}

// TestInterleave soaks every configuration through the interleaver.
func TestInterleave(t *testing.T) {
	soak(t, "TestInterleave", func(cfg interleaveConfig, seed int64) error {
		_, _, err := interleaveOnce(cfg, seed)
		return err
	})
}

// TestSeedReplaysSchedule: an interleaver seed is a schedule — running it
// twice takes the same steps and gives the same results at the same virtual
// times.
func TestSeedReplaysSchedule(t *testing.T) {
	for _, cfg := range interleaveConfigs {
		for seed := range int64(20) {
			a, outsA, errA := interleaveOnce(cfg, seed)
			b, outsB, errB := interleaveOnce(cfg, seed)
			if errA != nil || errB != nil {
				t.Fatalf("%s seed %d: %v / %v", cfg.name, seed, errA, errB)
			}
			same := a.steps == b.steps && a.clock == b.clock && len(outsA) == len(outsB)
			for i := 0; same && i < len(outsA); i++ {
				same = outsA[i].At == outsB[i].At && outsA[i].T.ResultKey() == outsB[i].T.ResultKey()
			}
			if !same {
				t.Errorf("%s seed %d did not replay: %d vs %d steps, %d vs %d results",
					cfg.name, seed, a.steps, b.steps, len(outsA), len(outsB))
			}
		}
	}
}
