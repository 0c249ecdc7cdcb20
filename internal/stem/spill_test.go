package stem

// Unit tests for the real-spill layer: the segment codec, the byte
// governor's accounting and cleanup, spill-at-build with exact duplicate
// detection through the disk, the recorded-probe replay, and partition
// recall.

import (
	"os"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

func TestSpillCodecRoundTrip(t *testing.T) {
	rows := []tuple.Row{
		row(1, 2),
		{value.NewStr("hello"), value.NewInt(-7)},
		{value.NewNull(), value.NewStr("")},
		{value.NewEOT(), value.NewStr("emb,edded\nnewline")},
	}
	var buf []byte
	for i, r := range rows {
		buf = appendEntry(buf, r, tuple.Timestamp(i+1))
	}
	got, err := decodeEntries(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(rows))
	}
	for i, e := range got {
		if e.TS != tuple.Timestamp(i+1) {
			t.Errorf("entry %d: ts %d, want %d", i, e.TS, i+1)
		}
		if !e.Row.Equal(rows[i]) {
			t.Errorf("entry %d: row %v, want %v", i, e.Row, rows[i])
		}
	}
	// Every truncation of a valid stream must error, not misdecode.
	for cut := 1; cut < len(buf); cut++ {
		if _, err := decodeEntries(buf[:cut]); err == nil {
			// A cut landing exactly on an entry boundary is a valid shorter
			// stream; anything else must fail.
			if es, _ := decodeEntries(buf[:cut]); len(es) == 0 || cut != len(appendEntryAll(rows[:len(es)])) {
				t.Fatalf("truncation at %d decoded silently", cut)
			}
		}
	}
}

func appendEntryAll(rows []tuple.Row) []byte {
	var buf []byte
	for i, r := range rows {
		buf = appendEntry(buf, r, tuple.Timestamp(i+1))
	}
	return buf
}

func TestRowFootprint(t *testing.T) {
	small := RowFootprint(row(1, 2))
	big := RowFootprint(tuple.Row{value.NewStr("a long string payload"), value.NewInt(1)})
	if small <= 0 || big <= small {
		t.Fatalf("footprints: small=%d big=%d", small, big)
	}
}

func TestSpillGovernorAccounting(t *testing.T) {
	g, err := NewSpillGovernor(1000, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	id := g.register()
	fp := int64(112)
	admitted := 0
	for i := 0; i < 20; i++ {
		if g.admitBuild(id, fp) {
			admitted++
		}
	}
	if want := int(1000 / fp); admitted != want {
		t.Fatalf("admitted %d rows, want %d", admitted, want)
	}
	res, sp := g.BytesStats()
	if res != int64(admitted)*fp || sp != int64(20-admitted)*fp {
		t.Fatalf("BytesStats = (%d, %d)", res, sp)
	}
	// Recall honors the global budget: nothing fits while resident is full.
	if g.tryRecall(id, fp) {
		t.Fatal("tryRecall succeeded beyond the budget")
	}
}

func TestSpillGovernorCloseRemovesDir(t *testing.T) {
	base := t.TempDir()
	g, err := NewSpillGovernor(1, base)
	if err != nil {
		t.Fatal(err)
	}
	run := g.dir
	f, err := g.createSegment("t0-s0-p0.seg")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("data")
	f.Close()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(run); !os.IsNotExist(err) {
		t.Fatalf("run dir %s survived Close (err=%v)", run, err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// spillSteM builds a governed S-SteM (table 1) plus an ungoverned sibling
// registration so the governor has two members (the realistic shape: the
// whole query's SteMs share one governor).
func spillSteM(t *testing.T, budget int64) (*SteM, *Governor, *Counter) {
	t.Helper()
	g, err := NewSpillGovernor(budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	q := twoTableQ(t, true, false)
	cnt := &Counter{}
	s := New(Config{Table: 1, Q: q, TS: cnt, Gov: g})
	New(Config{Table: 0, Q: q, TS: cnt, Gov: g}) // second member, never built
	return s, g, cnt
}

func sProbe(cnt *Counter, a int64) *tuple.Tuple {
	p := singleton(2, 0, row(1, a))
	p.CompTS[0] = cnt.Next()
	p.Built = tuple.Single(0)
	return p
}

// TestSpillBuildProbeReplay drives the full spill lifecycle on one SteM: a
// pathological budget spills every build, probes find nothing live but are
// recorded, and DrainSpill regenerates exactly the owed concatenations.
func TestSpillBuildProbeReplay(t *testing.T) {
	s, _, cnt := spillSteM(t, 1)
	const n = 40
	for x := 0; x < n; x++ {
		out := process(t, s, singleton(2, 1, row(int64(x), int64(x*100))))
		if len(out) != 1 {
			t.Fatalf("spilled build must still bounce back, got %v", out)
		}
	}
	if s.Size() != 0 || s.SpilledRowsOnDisk() != n {
		t.Fatalf("resident=%d onDisk=%d, want 0/%d", s.Size(), s.SpilledRowsOnDisk(), n)
	}

	// A duplicate build must be detected through the disk.
	if out := process(t, s, singleton(2, 1, row(3, 300))); len(out) != 0 {
		t.Fatalf("duplicate of a spilled row must be consumed, got %v", out)
	}
	if st := s.Stats(); st.DupBuilds != 1 {
		t.Fatalf("DupBuilds = %d, want 1", st.DupBuilds)
	}

	// Probes: no live matches, but each is recorded.
	for x := 0; x < n; x++ {
		out := process(t, s, sProbe(cnt, int64(x)))
		for _, em := range out {
			if em.T.Span.Count() > 1 {
				t.Fatalf("probe of a fully spilled SteM returned a live match %v", em.T)
			}
		}
	}

	// Replay regenerates one concatenation per probe.
	ems := s.DrainSpill()
	if len(ems) != n {
		t.Fatalf("replay produced %d results, want %d", len(ems), n)
	}
	seen := map[string]bool{}
	for _, em := range ems {
		if em.T.Span != tuple.Single(0).With(1) {
			t.Fatalf("replay emission spans %v", em.T.Span)
		}
		seen[em.T.ResultKey()] = true
	}
	if len(seen) != n {
		t.Fatalf("replay produced %d distinct results, want %d", len(seen), n)
	}
	// A second drain owes nothing.
	if ems := s.DrainSpill(); len(ems) != 0 {
		t.Fatalf("second drain replayed %d extra results", len(ems))
	}
}

// TestSpillRecall forces the un-spill path: a moderate budget spills part of
// the build set while global headroom remains, and a run of probes then
// recalls a hot partition — its rows become resident, its recordings are
// satisfied, and no result is lost or duplicated across live + replay.
func TestSpillRecall(t *testing.T) {
	s, _, cnt := spillSteM(t, 8<<10)
	const n = 200
	for x := 0; x < n; x++ {
		process(t, s, singleton(2, 1, row(int64(x), int64(x*100))))
	}
	spilled := s.SpilledRowsOnDisk()
	if spilled == 0 || spilled == n {
		t.Fatalf("want a partial spill, got %d/%d on disk", spilled, n)
	}

	results := map[string]int{}
	for x := 0; x < n; x++ {
		for _, em := range process(t, s, sProbe(cnt, int64(x))) {
			if em.T.Span.Count() > 1 {
				results[em.T.ResultKey()]++
			}
		}
	}
	for _, em := range s.DrainSpill() {
		results[em.T.ResultKey()]++
	}
	if len(results) != n {
		t.Fatalf("got %d distinct results, want %d", len(results), n)
	}
	for k, c := range results {
		if c != 1 {
			t.Fatalf("result %s produced %d times", k, c)
		}
	}
	st := s.Stats()
	if st.Recalls == 0 {
		t.Fatal("no partition was recalled despite global headroom and hot probes")
	}
	if s.SpilledRowsOnDisk() >= spilled {
		t.Fatalf("recall did not shrink disk rows: %d -> %d", spilled, s.SpilledRowsOnDisk())
	}
}
