package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Modules returns the per-module aggregates.
func (c *Collector) Modules() []ModStats { return c.mods }

func row(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func TestCollectorGathersModuleStats(t *testing.T) {
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100), row(20, 200)})
	q := query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
		})
	r, err := eddy.NewRouter(q, eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := eddy.NewSim(r)
	var outs int
	sim.OnOutput = func(*tuple.Tuple, clock.Time) { outs++ } // chained hook
	c := NewCollector(r.Modules())
	c.Attach(sim)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if outs != 2 {
		t.Errorf("chained OnOutput saw %d outputs, want 2", outs)
	}
	total := uint64(0)
	for _, m := range c.Modules() {
		total += m.Visits
	}
	if total == 0 {
		t.Fatal("collector saw no visits")
	}
	// SteM(R) must have been visited: 2 builds + probes by S tuples.
	var stemR ModStats
	for _, m := range c.Modules() {
		if m.Name == "SteM(R)" {
			stemR = m
		}
	}
	if stemR.Visits < 4 {
		t.Errorf("SteM(R) visits = %d, want >= 4 (2 builds + 2 probes)", stemR.Visits)
	}
	// Emissions by span width: singletons and full results.
	if len(c.SpanHistogram) < 3 || c.SpanHistogram[2] != 2 {
		t.Errorf("span histogram = %v, want 2 two-table emissions", c.SpanHistogram)
	}
	rep := c.Report()
	for _, want := range []string{"SteM(R)", "AM(R/scan)", "2 results", "span width"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// twoWayQuery builds the R⋈S query used by the concurrent-engine tests.
func twoWayQuery(t *testing.T) *query.Q {
	t.Helper()
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100), row(20, 200)})
	return query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
		})
}

// TestAttachConcurrentGathersModuleStats runs the concurrent engine with a
// collector attached and asserts the feedback-driven aggregates line up
// with the run: every module visited, outputs counted, hooks chained.
func TestAttachConcurrentGathersModuleStats(t *testing.T) {
	r, err := eddy.NewRouter(twoWayQuery(t), eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := eddy.NewConcurrent(r, nil)
	var streamed int
	eng.OnOutput = func(*tuple.Tuple, clock.Time) { streamed++ } // set first, must chain
	c := NewCollector(r.Modules())
	c.AttachConcurrent(eng)
	outs, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || streamed != 2 {
		t.Fatalf("outputs=%d chained=%d, want 2 and 2", len(outs), streamed)
	}
	if got := c.Record(nil).Results; got != 2 {
		t.Errorf("collector results = %d, want 2", got)
	}
	for _, m := range c.Modules() {
		if m.Visits == 0 {
			t.Errorf("module %s never visited", m.Name)
		}
	}
	rec := c.Record(r.Policy())
	if rec.Results != 2 || len(rec.Modules) != len(c.Modules()) {
		t.Errorf("record results=%d modules=%d", rec.Results, len(rec.Modules))
	}
	// Modules are ordered busiest-first.
	for i := 1; i < len(rec.Modules); i++ {
		if rec.Modules[i].Visits > rec.Modules[i-1].Visits {
			t.Errorf("record modules not ordered by visits: %v", rec.Modules)
		}
	}
}

// TestObserveFeedback pins the normalization rules: batched feedback counts
// its Visits, zero/negative Visits count as one, pure wake-ups (Emitted < 0)
// and out-of-range modules are dropped, negative Outputs never subtract.
func TestObserveFeedback(t *testing.T) {
	c := &Collector{mods: []ModStats{{Name: "a", FirstBusy: -1}, {Name: "b", FirstBusy: -1}}}
	c.ObserveFeedback(policy.Feedback{Module: 0, Visits: 3, Outputs: 2, Emitted: 2, Cost: clock.Millisecond, Now: clock.Time(5 * clock.Millisecond)})
	c.ObserveFeedback(policy.Feedback{Module: 0, Visits: 0, Outputs: -1, Emitted: 0, Now: clock.Time(9 * clock.Millisecond)})
	c.ObserveFeedback(policy.Feedback{Module: 0, Emitted: -1, Visits: 100}) // wake-up: dropped
	c.ObserveFeedback(policy.Feedback{Module: 7, Emitted: 1, Visits: 100})  // out of range
	c.ObserveFeedback(policy.Feedback{Module: -1, Emitted: 1, Visits: 100}) // out of range
	m := c.Modules()[0]
	if m.Visits != 4 {
		t.Errorf("visits = %d, want 4 (3 batched + 1 normalized)", m.Visits)
	}
	if m.Outputs != 2 {
		t.Errorf("outputs = %d, want 2 (negative outputs ignored)", m.Outputs)
	}
	if m.TotalCost != clock.Millisecond {
		t.Errorf("cost = %v, want 1ms", m.TotalCost)
	}
	if m.FirstBusy != clock.Time(5*clock.Millisecond) || m.LastBusy != clock.Time(9*clock.Millisecond) {
		t.Errorf("busy window = [%v, %v], want [5ms, 9ms]", m.FirstBusy, m.LastBusy)
	}
	if got := c.Modules()[1]; got.Visits != 0 {
		t.Errorf("module b visits = %d, want 0", got.Visits)
	}
}

// TestCollectorReset asserts Reset restores the just-constructed state —
// the invariant pooled plan-cache shells rely on.
func TestCollectorReset(t *testing.T) {
	r, err := eddy.NewRouter(twoWayQuery(t), eddy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := eddy.NewSim(r)
	c := NewCollector(r.Modules())
	c.Attach(sim)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Record(nil).Results == 0 {
		t.Fatal("run collected nothing; Reset test is vacuous")
	}
	before, _ := json.Marshal(NewCollector(r.Modules()).Record(nil))
	c.Reset()
	after, _ := json.Marshal(c.Record(nil))
	if string(before) != string(after) {
		t.Errorf("Reset did not restore pristine state:\nfresh: %s\nreset: %s", before, after)
	}
}
