package eddy

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// fakeEnv satisfies policy.Env for direct Route calls.
type fakeEnv struct{}

func (fakeEnv) Now() clock.Time            { return 0 }
func (fakeEnv) Backlog(int) clock.Duration { return 0 }

// indexQuery returns R(scan) ⋈ S(index-only) and its router.
func indexQuery(t *testing.T, opts Options) (*query.Q, *Router) {
	t.Helper()
	q := func() *query.Q {
		base := twoTableQuery(t)
		sIdx := query.AMDecl{Table: 1, Kind: query.Index, Data: base.AMs[1].Data,
			IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: clock.Millisecond}}
		return query.MustNew(base.Tables, base.Preds, []query.AMDecl{base.AMs[0], sIdx})
	}()
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q, r
}

func TestRouteSeedGoesToItsAM(t *testing.T) {
	_, r := indexQuery(t, Options{})
	seed := tuple.NewSeed(2, 1)
	d := r.Route(seed, fakeEnv{})
	if d.Output || d.Drop || d.Module != 1 {
		t.Errorf("seed decision = %+v", d)
	}
}

func TestRouteEOTGoesToSteM(t *testing.T) {
	_, r := indexQuery(t, Options{})
	eot := tuple.NewEOT(2, 1, tuple.Row{value.NewEOT(), value.NewEOT()}, nil)
	d := r.Route(eot, fakeEnv{})
	if d.Module != r.stemMod[1] || d.Kind != policy.BuildSteM {
		t.Errorf("EOT decision = %+v", d)
	}
}

func TestRouteBuildFirst(t *testing.T) {
	_, r := indexQuery(t, Options{})
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	d := r.Route(rt, fakeEnv{})
	if d.Module != r.stemMod[0] || d.Kind != policy.BuildSteM {
		t.Errorf("unbuilt singleton decision = %+v, want build into SteM(R)", d)
	}
}

func TestRouteBuiltSingletonProbes(t *testing.T) {
	_, r := indexQuery(t, Options{})
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	rt.Built = tuple.Single(0)
	rt.CompTS[0] = 1
	d := r.Route(rt, fakeEnv{})
	if d.Kind != policy.ProbeSteM || d.Module != r.stemMod[1] {
		t.Errorf("built singleton decision = %+v, want probe SteM(S)", d)
	}
}

func TestRoutePriorProberToIndexAM(t *testing.T) {
	_, r := indexQuery(t, Options{})
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	rt.Built = tuple.Single(0)
	rt.CompTS[0] = 1
	rt.PriorProber = true
	rt.ProbeTable = 1
	d := r.Route(rt, fakeEnv{})
	if d.Kind != policy.ProbeAM {
		t.Errorf("prior prober decision = %+v, want ProbeAM", d)
	}
}

func TestRoutePriorProberAfterAMProbeDropped(t *testing.T) {
	_, r := indexQuery(t, Options{})
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	rt.Built = tuple.Single(0)
	rt.PriorProber = true
	rt.ProbeTable = 1
	rt.AMProbed = true
	if d := r.Route(rt, fakeEnv{}); !d.Drop {
		t.Errorf("AM-probed prior prober decision = %+v, want drop", d)
	}
}

func TestRouteOutputWhenComplete(t *testing.T) {
	q, r := indexQuery(t, Options{})
	a := tuple.NewSingleton(2, 0, intRow(1, 10))
	a.Built = tuple.Single(0)
	a.CompTS[0] = 1
	b := tuple.NewSingleton(2, 1, intRow(10, 100))
	b.Built = tuple.Single(1)
	b.CompTS[1] = 2
	cat := a.Concat(b)
	cat.Done = q.AllPreds()
	if d := r.Route(cat, fakeEnv{}); !d.Output {
		t.Errorf("complete tuple decision = %+v, want output", d)
	}
}

func TestRouteBoundedRepetition(t *testing.T) {
	_, r := indexQuery(t, Options{})
	r.maxVisits = 1
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	// First route: build.
	d := r.Route(rt, fakeEnv{})
	if d.Kind != policy.BuildSteM {
		t.Fatal("want build")
	}
	// Simulate the tuple somehow returning unbuilt (adversarial): visits
	// are exhausted, so the router must drop rather than loop.
	d2 := r.Route(rt, fakeEnv{})
	if !d2.Drop {
		t.Errorf("repeat decision = %+v, want drop under maxVisits=1", d2)
	}
}

func TestRouterStringAndAccessors(t *testing.T) {
	_, r := indexQuery(t, Options{})
	if r.String() == "" {
		t.Error("String empty")
	}
	if len(r.SteMs()) != 2 || len(r.AMs()) != 2 || len(r.SMs()) != 0 {
		t.Errorf("module counts: stems=%d ams=%d sms=%d", len(r.SteMs()), len(r.AMs()), len(r.SMs()))
	}
	if r.Policy() == nil {
		t.Error("default policy missing")
	}
}

// TestRouteHybridChoiceCandidates verifies a bounced probe on a table with
// scan+index AMs is offered both the index probe and the safe drop — the
// Section 4.3 decision point.
func TestRouteHybridChoiceCandidates(t *testing.T) {
	base := twoTableQuery(t)
	sIdx := query.AMDecl{Table: 1, Kind: query.Index, Data: base.AMs[1].Data,
		IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: clock.Millisecond}}
	q := query.MustNew(base.Tables, base.Preds, []query.AMDecl{base.AMs[0], base.AMs[1], sIdx})
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := tuple.NewSingleton(2, 0, intRow(1, 10))
	rt.Built = tuple.Single(0)
	rt.CompTS[0] = 1
	rt.PriorProber = true
	rt.ProbeTable = 1
	cands := r.candidates(rt)
	var hasAM, hasDrop bool
	for _, c := range cands {
		switch c.Kind {
		case policy.ProbeAM:
			hasAM = true
		case policy.DropTuple:
			hasDrop = true
		}
	}
	if !hasAM || !hasDrop {
		t.Errorf("hybrid candidates = %+v, want both ProbeAM and DropTuple", cands)
	}
}
