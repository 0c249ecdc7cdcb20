package stem

// Pins for the private build's storage discipline: a columnar build into warm
// storage allocates nothing, a cold one allocates O(log n), a windowed
// dictionary stays O(window) however much passes through it, and a released
// dictionary references no row.

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/tuple"
	"repro/internal/value"
)

// srcBatch is what an AM's columnar scan hands a SteM: rows transposed into
// table's column vectors, with the source rows riding along.
func srcBatch(nTables, table int, rows []tuple.Row) *flow.ColBatch {
	cb := flow.GetColBatch(nTables)
	cb.Span = tuple.Single(table)
	cb.LoadRows(table, len(rows[0]), rows)
	return cb
}

// rebuild puts a bounced build batch back to its just-scanned state.
func rebuild(cb *flow.ColBatch) {
	cb.Built = 0
	cb.Sel = nil
}

func TestBuildColsAllocations(t *testing.T) {
	const n = 1024
	q := twoTableQ(t, true, false)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%97))
	}
	cb := srcBatch(2, 0, rows)
	s := newSteM(q, 0)
	sh := &s.shards[0]
	build := func() {
		rebuild(cb)
		if _, ems, _ := s.buildCols(cb, sh); len(ems) != 1 || ems[0].B.Rows() != n {
			t.Fatalf("build bounced %v, want one batch of %d rows", ems, n)
		}
	}

	build() // warms the dictionary, the selection vector and the TS column
	stored := sh.dict.entries
	for i, e := range stored {
		if &e.Row[0] != &rows[i][0] {
			t.Fatalf("entry %d holds a copy of its source row, want the row itself", i)
		}
	}
	warm := testing.AllocsPerRun(20, func() {
		sh.dict.Clear()
		build()
	})
	if warm > 1 { // the []flow.ColEmission the batch comes back in
		t.Errorf("warm build of %d rows: %.0f allocations, want at most the emission slice", n, warm)
	}

	cold := testing.AllocsPerRun(5, func() {
		sh.dict = NewHashDict(s.joinCols)
		build()
	})
	if cold > n/8 {
		t.Errorf("cold build of %d rows: %.0f allocations, want O(log n)", n, cold)
	}
	t.Logf("%d-row build: %.0f allocations warm, %.0f cold", n, warm, cold)

	// A batch that lost its source rows falls back to one slab per batch.
	cb.Tabs[0].Src = nil
	sh.dict.Clear()
	build()
	if e := sh.dict.entries[0]; &e.Row[0] == &rows[0][0] || !e.Row.Equal(rows[0]) {
		t.Fatalf("slab fallback stored %v for source row %v", e.Row, rows[0])
	}
}

// TestWindowedDictStaysCompact pushes 200,000 rows sharing one join key
// through a window of 100: the dictionary must hold O(window) slots and a
// probe on the key must walk O(window) positions, not every row ever stored.
func TestWindowedDictStaysCompact(t *testing.T) {
	const window, total = 100, 200_000
	const bound = 2*window + compactMinDead + 1
	q := twoTableQ(t, true, false)
	s := newSteM(q, 0, func(c *Config) { c.Window = window })
	hd := s.shards[0].dict
	key := value.NewInt(7)
	for i := 0; i < total; i++ {
		process(t, s, singleton(2, 0, tuple.Row{value.NewInt(int64(i)), key}))
		if len(hd.entries) > bound {
			t.Fatalf("after %d rows the dictionary holds %d slots, want at most %d", i+1, len(hd.entries), bound)
		}
	}
	if s.Size() != window || hd.Len() != window {
		t.Fatalf("Size = %d, Len = %d, want the window %d", s.Size(), hd.Len(), window)
	}
	b := hd.bucket(hd.colIndex(1), key.Hash64())
	if b.Len() > bound {
		t.Fatalf("the hot key's chain is %d long, want at most %d", b.Len(), bound)
	}
	es := hd.Candidates(Lookup{EquiCols: []int{1}, EquiVals: []value.V{key}})
	if len(es) != window {
		t.Fatalf("probe found %d rows, want the %d in the window", len(es), window)
	}
	for i, e := range es {
		if want := int64(total - window + i); e.Row[0].I != want {
			t.Fatalf("candidate %d is row %d, want %d (insertion order)", i, e.Row[0].I, want)
		}
	}
	if cap(hd.entries) > 4*bound {
		t.Fatalf("entries grew to capacity %d", cap(hd.entries))
	}
}

// TestReleaseZeroesStorage: what Release hands to the pool must not reference
// a row, anywhere in its capacity, and the SteM must not keep the dictionary.
func TestReleaseZeroesStorage(t *testing.T) {
	q := twoTableQ(t, true, false)
	s := newSteM(q, 0)
	for i := 0; i < 100; i++ {
		process(t, s, singleton(2, 0, row(int64(i), int64(i%7))))
	}
	hd := s.shards[0].dict
	s.Release()
	if s.shards[0].dict != nil || s.Size() != 0 {
		t.Fatalf("released SteM still holds a dictionary (Size %d)", s.Size())
	}
	if hd.Len() != 0 {
		t.Fatalf("released dictionary holds %d rows", hd.Len())
	}
	for i, e := range hd.entries[:cap(hd.entries)] {
		if e.Row != nil || e.TS != 0 {
			t.Fatalf("released dictionary's slot %d still holds %v", i, e)
		}
	}
	for slot, m := range hd.buckets {
		if len(m) != 0 {
			t.Fatalf("released dictionary's index %d still has %d keys", slot, len(m))
		}
	}

	// Reset brings a released SteM back; a never-released one resets in place.
	s.Reset()
	process(t, s, singleton(2, 0, row(1, 10)))
	if s.Size() != 1 {
		t.Fatalf("Size after Release+Reset+build = %d", s.Size())
	}
	kept := s.shards[0].dict
	s.Reset()
	if s.shards[0].dict != kept || s.Size() != 0 {
		t.Fatal("Reset of a never-released SteM must clear its own dictionary in place")
	}

	// A windowed SteM's rows are on the eviction count's books, which no
	// Reset rewinds: it keeps its storage.
	w := newSteM(q, 0, func(c *Config) { c.Window = 4 })
	process(t, w, singleton(2, 0, row(1, 10)))
	w.Release()
	if w.Size() != 1 {
		t.Error("windowed SteM released its storage")
	}

	// A dictionary grown by a big build and drawn by a small one is not
	// pooled: every later Clear would cost its capacity.
	big := NewHashDict([]int{0})
	for i := 0; i <= dictKeepRows; i++ {
		big.Insert(row(int64(i), 0), tuple.Timestamp(i+1))
	}
	big.Clear()
	big.Insert(row(1, 10), 1)
	if releaseDict(big); big.Len() != 1 {
		t.Error("an oversized dictionary was cleared for the pool")
	}

	ss, err := BuildShared(SharedConfig{KeyCols: []int{0}}, []tuple.Row{row(10, 100)})
	if err != nil {
		t.Fatal(err)
	}
	at := newSteM(q, 1, func(c *Config) { c.Shared = ss })
	at.Release()
	if at.Size() != 1 || ss.dicts[0].Len() != 1 {
		t.Error("attached SteM released the shared state's dictionary")
	}
}
