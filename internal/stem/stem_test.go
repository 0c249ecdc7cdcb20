package stem

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// twoTableQ builds R(k,a) ⋈ S(x,y) on R.a=S.x. withIndex adds an index AM on
// S.x; withScan keeps the scan on S.
func twoTableQ(t *testing.T, withScan, withIndex bool) *query.Q {
	t.Helper()
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10), row(2, 20)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100), row(20, 200)})
	ams := []query.AMDecl{
		{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
	}
	if withScan {
		ams = append(ams, query.AMDecl{Table: 1, Kind: query.Scan, Data: sData,
			ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}})
	}
	if withIndex {
		ams = append(ams, query.AMDecl{Table: 1, Kind: query.Index, Data: sData,
			IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: clock.Millisecond}})
	}
	return query.MustNew([]*schema.Table{rT, sT}, []pred.P{pred.EquiJoin(0, 1, 1, 0)}, ams)
}

func newSteM(q *query.Q, table int, opts ...func(*Config)) *SteM {
	cfg := Config{Table: table, Q: q, TS: &Counter{}}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

func singleton(n, table int, r tuple.Row) *tuple.Tuple {
	return tuple.NewSingleton(n, table, r)
}

func process(t *testing.T, s *SteM, tp *tuple.Tuple) []flow.Emission {
	t.Helper()
	out, _ := s.Process(tp, 0)
	return out
}

// TestTable1_BuildBouncesBack: "SteM: build t into the SteM ... bounce back
// t" — and the build records timestamp and built-bit.
func TestTable1_BuildBouncesBack(t *testing.T) {
	q := twoTableQ(t, true, false)
	s := newSteM(q, 0)
	r := singleton(2, 0, row(1, 10))
	out := process(t, s, r)
	if len(out) != 1 || out[0].T != r {
		t.Fatalf("build must bounce the tuple back, got %v", out)
	}
	if !r.Built.Has(0) || r.CompTS[0] == tuple.InfTS {
		t.Error("build must set built-bit and timestamp")
	}
	if s.Size() != 1 {
		t.Errorf("Size = %d", s.Size())
	}
}

// TestTable1_DuplicateBuildConsumed: set-semantics dedup (Section 3.2) — a
// duplicate build is removed from the dataflow, not bounced.
func TestTable1_DuplicateBuildConsumed(t *testing.T) {
	q := twoTableQ(t, true, false)
	s := newSteM(q, 0)
	process(t, s, singleton(2, 0, row(1, 10)))
	dup := singleton(2, 0, row(1, 10))
	if out := process(t, s, dup); len(out) != 0 {
		t.Fatalf("duplicate build must be consumed, got %v", out)
	}
	st := s.Stats()
	if st.Builds != 1 || st.DupBuilds != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTable1_ProbeReturnsConcatenatedMatches: probes return concatenations
// that pass every applicable predicate, with done bits set.
func TestTable1_ProbeReturnsConcatenatedMatches(t *testing.T) {
	q := twoTableQ(t, true, false)
	sR := newSteM(q, 0)
	r1 := singleton(2, 0, row(1, 10))
	r2 := singleton(2, 0, row(2, 20))
	process(t, sR, r1)
	process(t, sR, r2)

	// An S tuple (built elsewhere, so its ts is later) probes SteM(R).
	s1 := singleton(2, 1, row(10, 100))
	s1.CompTS[1] = 99
	s1.Built = tuple.Single(1)
	out := process(t, sR, s1)
	var results []*tuple.Tuple
	for _, e := range out {
		if e.T != s1 {
			results = append(results, e.T)
		}
	}
	if len(results) != 1 {
		t.Fatalf("probe returned %d results, want 1 (only R.a=10 matches)", len(results))
	}
	cat := results[0]
	if cat.Span != tuple.All(2) {
		t.Errorf("concat span = %v", cat.Span)
	}
	if !cat.Done.Has(0) {
		t.Error("join predicate must be marked done on the concatenation")
	}
}

// TestFigure3_TimeStampPreventsDuplicates reproduces the Figure 3 race:
// builds of r1 and s1 interleave with their probes; without the TimeStamp
// constraint the result (r1,s1) would be emitted by both probes.
func TestFigure3_TimeStampPreventsDuplicates(t *testing.T) {
	q := twoTableQ(t, true, false)
	counter := &Counter{}
	sR := New(Config{Table: 0, Q: q, TS: counter})
	sS := New(Config{Table: 1, Q: q, TS: counter})

	r1 := singleton(2, 0, row(1, 10))
	s1 := singleton(2, 1, row(10, 100))
	// Step 1: build r1. Step 2: build s1. Step 3: probe s1 into SteM(R).
	// Step 4: probe r1 into SteM(S).
	process(t, sR, r1)
	process(t, sS, s1)
	results := 0
	for _, e := range process(t, sR, s1) {
		if e.T != s1 {
			results++
		}
	}
	for _, e := range process(t, sS, r1) {
		if e.T != r1 {
			results++
		}
	}
	if results != 1 {
		t.Fatalf("interleaved build/probe produced %d results, want exactly 1 (TimeStamp constraint)", results)
	}
}

// TestProbeBounce_NoScanAM: with only an index AM on S, an incomplete probe
// must bounce back and become a prior prober (SteM BounceBack, Table 2).
func TestProbeBounce_NoScanAM(t *testing.T) {
	q := twoTableQ(t, false, true)
	sS := newSteM(q, 1)
	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = 1
	r.Built = tuple.Single(0)
	out := process(t, sS, r)
	if len(out) != 1 || out[0].T != r {
		t.Fatalf("incomplete probe must bounce, got %v", out)
	}
	if !r.PriorProber || r.ProbeTable != 1 {
		t.Error("bounced probe must be marked a prior prober for S")
	}
}

// TestProbeConsumed_ScanAMAndCached: with a scan AM on S and the probe's
// components cached, the SteM consumes the probe (the scan regenerates any
// missing matches).
func TestProbeConsumed_ScanAMAndCached(t *testing.T) {
	q := twoTableQ(t, true, false)
	sS := newSteM(q, 1)
	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = 1
	r.Built = tuple.Single(0)
	out := process(t, sS, r)
	if len(out) != 0 {
		t.Fatalf("probe should be consumed, got %v", out)
	}
	if r.PriorProber {
		t.Error("consumed probe must not be a prior prober")
	}
}

// TestEOTCompleteness_IndexEOT: once the EOT for a binding is built in, the
// SteM answers that binding's probes from cache without bouncing ("SteM(S)'s
// role is that of a cache on index lookups into S", Section 3.3).
func TestEOTCompleteness_IndexEOT(t *testing.T) {
	q := twoTableQ(t, false, true)
	counter := &Counter{}
	sS := New(Config{Table: 1, Q: q, TS: counter})

	// Matches for x=10 arrive and build; then the EOT for x=10.
	m := singleton(2, 1, row(10, 100))
	process(t, sS, m)
	eot := tuple.NewEOT(2, 1, tuple.Row{value.NewInt(10), value.NewEOT()}, []int{0})
	process(t, sS, eot)

	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = counter.Next()
	r.Built = tuple.Single(0)
	out := process(t, sS, r)
	results, bounced := 0, false
	for _, e := range out {
		if e.T == r {
			bounced = true
		} else {
			results++
		}
	}
	if results != 1 {
		t.Errorf("cached probe returned %d results, want 1", results)
	}
	if bounced {
		t.Error("probe with matching EOT must not bounce (all matches cached)")
	}
	// A different binding (x=20) is still incomplete: must bounce.
	r2 := singleton(2, 0, row(2, 20))
	r2.CompTS[0] = counter.Next()
	r2.Built = tuple.Single(0)
	out2 := process(t, sS, r2)
	if len(out2) != 1 || out2[0].T != r2 {
		t.Error("uncovered binding must still bounce")
	}
}

// TestEOTCompleteness_FullEOT: a scan EOT makes every probe complete.
func TestEOTCompleteness_FullEOT(t *testing.T) {
	q := twoTableQ(t, false, true)
	counter := &Counter{}
	sS := New(Config{Table: 1, Q: q, TS: counter})
	process(t, sS, tuple.NewEOT(2, 1, tuple.Row{value.NewEOT(), value.NewEOT()}, nil))
	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = counter.Next()
	r.Built = tuple.Single(0)
	if out := process(t, sS, r); len(out) != 0 {
		t.Errorf("probe after full EOT must be consumed, got %v", out)
	}
}

// TestBounceIfIndexAM: the Section 4.1 hook bounces incomplete probes even
// when a scan AM exists, handing the index/hash choice to the eddy.
func TestBounceIfIndexAM(t *testing.T) {
	q := twoTableQ(t, true, true)
	sS := newSteM(q, 1, func(c *Config) { c.ProbeBounce = BounceIfIndexAM })
	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = 1
	r.Built = tuple.Single(0)
	out := process(t, sS, r)
	if len(out) != 1 || !r.PriorProber {
		t.Fatal("BounceIfIndexAM must bounce incomplete probes")
	}
}

// TestLastMatchTS_RepeatedProbes: a re-probing prior prober only receives
// matches built since its last visit (Section 3.5's LastMatchTimeStamp).
func TestLastMatchTS_RepeatedProbes(t *testing.T) {
	q := twoTableQ(t, false, true)
	counter := &Counter{}
	sS := New(Config{Table: 1, Q: q, TS: counter})

	process(t, sS, singleton(2, 1, row(10, 100)))
	r := singleton(2, 0, row(1, 10))
	r.CompTS[0] = counter.Next() // r arrives after the first match
	r.Built = tuple.Single(0)

	first := process(t, sS, r)
	results := 0
	for _, e := range first {
		if e.T != r {
			results++
		}
	}
	if results != 1 {
		t.Fatalf("first probe: %d results, want 1", results)
	}
	// Re-probe with nothing new: only the bounce comes back.
	second := process(t, sS, r)
	for _, e := range second {
		if e.T != r {
			t.Fatalf("re-probe returned duplicate match %v", e.T)
		}
	}
	// A new match arrives, built later; the third probe picks up only it —
	// but r's own timestamp must still exceed the match's for emission, so
	// refresh r's timestamp as a later-arriving prober would be.
	process(t, sS, singleton(2, 1, row(10, 101)))
	r.CompTS[0] = counter.Next()
	third := process(t, sS, r)
	results = 0
	for _, e := range third {
		if e.T != r {
			results++
		}
	}
	if results != 1 {
		t.Errorf("third probe: %d results, want exactly the new match", results)
	}
}

// TestWindowEviction: a windowed SteM holds at most Window rows and never
// claims completeness.
func TestWindowEviction(t *testing.T) {
	q := twoTableQ(t, true, false)
	sR := newSteM(q, 0, func(c *Config) { c.Window = 2 })
	for i := int64(0); i < 5; i++ {
		process(t, sR, singleton(2, 0, row(i, 10*i)))
	}
	if sR.Size() != 2 {
		t.Errorf("windowed Size = %d, want 2", sR.Size())
	}
	if sR.Stats().Evictions != 3 {
		t.Errorf("Evictions = %d, want 3", sR.Stats().Evictions)
	}
}

// TestJoinCols extracts exactly the columns involved in join predicates.
func TestJoinCols(t *testing.T) {
	q := twoTableQ(t, true, false)
	if got := JoinCols(q, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("JoinCols(R) = %v, want [1]", got)
	}
	if got := JoinCols(q, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("JoinCols(S) = %v, want [0]", got)
	}
}

// TestSelectionVerifiedAtProbe: selections on the stored table are evaluated
// during concatenation (matches "satisfy all query predicates that can be
// evaluated on the columns in t and S").
func TestSelectionVerifiedAtProbe(t *testing.T) {
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rData := source.MustTable(rT, []tuple.Row{row(1, 10)})
	sData := source.MustTable(sT, []tuple.Row{row(10, 100)})
	q := query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{
			pred.EquiJoin(0, 1, 1, 0),
			pred.Selection(0, 0, pred.Ge, value.NewInt(5)), // R.k >= 5: r fails
		},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: rData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
			{Table: 1, Kind: query.Scan, Data: sData, ScanSpec: source.ScanSpec{InterArrival: clock.Millisecond}},
		})
	counter := &Counter{}
	sR := New(Config{Table: 0, Q: q, TS: counter})
	r := singleton(2, 0, row(1, 10)) // fails the selection
	process(t, sR, r)
	s := singleton(2, 1, row(10, 100))
	s.CompTS[1] = counter.Next()
	s.Built = tuple.Single(1)
	for _, e := range process(t, sR, s) {
		if e.T != s {
			t.Errorf("match violating the stored table's selection was emitted: %v", e.T)
		}
	}
}
