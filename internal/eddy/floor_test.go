package eddy

// Pins for the concurrent engine's service-time rule: the cost a module
// returns is a floor on how long its service takes — a declared latency still
// elapses in full — and never a sleep added to work that already took longer.
// What the policy is told (Feedback.Cost) is the time that elapsed.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
)

// fakeService is a single-server module that consumes every tuple: Process
// blocks for work of wall time, then declares cost. took records what each
// call measured for itself on the engine clock.
type fakeService struct {
	clk  *clock.Real
	work time.Duration
	cost clock.Duration
	took []clock.Duration
}

func (f *fakeService) Name() string  { return "fake" }
func (f *fakeService) Parallel() int { return 1 }

func (f *fakeService) Process(_ *tuple.Tuple, now clock.Time) ([]flow.Emission, clock.Duration) {
	time.Sleep(f.work)
	f.took = append(f.took, clock.Duration(f.clk.Now()-now))
	return nil, f.cost
}

// oneModule routes each of n seeds to its only module.
type oneModule struct {
	mod flow.Module
	n   int
	pol policy.Policy
}

func (o *oneModule) Route(*tuple.Tuple, policy.Env) Decision { return Decision{Module: 0} }
func (o *oneModule) Modules() []flow.Module                  { return []flow.Module{o.mod} }
func (o *oneModule) Policy() policy.Policy                   { return o.pol }
func (o *oneModule) Seeds() []*tuple.Tuple {
	seeds := make([]*tuple.Tuple, o.n)
	for i := range seeds {
		seeds[i] = tuple.NewSeed(1, 0)
	}
	return seeds
}

// runFake services n tuples one at a time and returns the module, the
// feedback the policy observed, and the run's length on the engine clock.
func runFake(t *testing.T, n int, work time.Duration, cost clock.Duration) (*fakeService, []policy.Feedback, clock.Duration) {
	t.Helper()
	clk := clock.NewReal(1)
	mod := &fakeService{clk: clk, work: work, cost: cost}
	eng := NewConcurrent(&oneModule{mod: mod, n: n, pol: policy.NewFixed()}, clk)
	var fbs []policy.Feedback
	eng.OnService = func(fb policy.Feedback) { fbs = append(fbs, fb) }
	start := clk.Now()
	if _, err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := clock.Duration(clk.Now() - start)
	if len(fbs) != n || len(mod.took) != n {
		t.Fatalf("%d services, %d feedback reports, want %d", len(mod.took), len(fbs), n)
	}
	return mod, fbs, wall
}

// TestDeclaredCostStillElapses: a service that returns at once but declares
// 20 ms takes 20 ms, and says so.
func TestDeclaredCostStillElapses(t *testing.T) {
	const cost = 20 * clock.Millisecond
	_, fbs, wall := runFake(t, 1, 0, cost)
	if wall < cost {
		t.Errorf("serviced in %v, want at least the declared %v", time.Duration(wall), time.Duration(cost))
	}
	if fbs[0].Cost < cost {
		t.Errorf("Feedback.Cost = %v, want at least the declared %v", time.Duration(fbs[0].Cost), time.Duration(cost))
	}
}

// TestNothingSleptOnTopOfRealWork: a service whose work takes 5 ms and which
// declares 1 ms reports the 5 ms it took, and n of them take n × 5 ms, not
// n × (5 + 1). The bounds are against what each Process call measured for
// itself, so a descheduled test binary stretches both sides alike.
func TestNothingSleptOnTopOfRealWork(t *testing.T) {
	const (
		n    = 8
		work = 5 * time.Millisecond
		cost = clock.Millisecond
	)
	mod, fbs, wall := runFake(t, n, work, cost)
	var worked clock.Duration
	over := make([]clock.Duration, n)
	for i, fb := range fbs {
		if fb.Cost < mod.took[i] {
			t.Errorf("service %d: Feedback.Cost = %v, less than the %v its Process took",
				i, time.Duration(fb.Cost), time.Duration(mod.took[i]))
		}
		over[i] = fb.Cost - mod.took[i]
		worked += mod.took[i]
	}
	slices.Sort(over)
	if over[n/2] >= cost {
		t.Errorf("median service reports %v beyond its own work; the declared %v was added on top",
			time.Duration(over[n/2]), time.Duration(cost))
	}
	if wall >= worked+n*cost {
		t.Errorf("%d services of %v total work took %v: the declared %v each was slept on top",
			n, time.Duration(worked), time.Duration(wall), time.Duration(cost))
	}
}

// TestSerialIndexLatencyHolds: an index AM with one server and declared
// latency L serialises K distinct lookups, so they take at least K × L.
func TestSerialIndexLatencyHolds(t *testing.T) {
	const (
		k   = 6
		lat = 5 * clock.Millisecond
	)
	rRows := make([][]int64, k)
	sRows := make([][]int64, k)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(10 * i)}
		sRows[i] = []int64{int64(10 * i), int64(100 * i)}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	q := query.MustNew(
		[]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			scanAM(0, source.MustTable(rT, rowsOf(rRows)), 0),
			indexAM(1, source.MustTable(sT, rowsOf(sRows)), []int{0}, lat, 1),
		},
	)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal(1)
	start := clk.Now()
	outs, err := NewConcurrent(r, clk).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wall := clock.Duration(clk.Now() - start)
	if len(outs) != k {
		t.Fatalf("%d results, want %d", len(outs), k)
	}
	if wall < k*lat {
		t.Errorf("%d lookups at %v each on one server took %v, want at least %v",
			k, time.Duration(lat), time.Duration(wall), time.Duration(k*lat))
	}
}
