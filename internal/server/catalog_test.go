// catalog_test.go pins Catalog.Append's contract: an append costs the rows
// appended, every published row prefix is immutable, and the catalog writes
// only into backing arrays it allocated itself.
package server

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// putSeq registers table name(k, a) with rows (i, i%7) for i in [0, n) and
// returns the *source.Table it registered.
func putSeq(t testing.TB, cat *Catalog, name string, n int) *source.Table {
	t.Helper()
	sch, err := schema.NewTable(name, schema.IntCol("k"), schema.IntCol("a"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := source.NewTable(sch, seqRows(n, 7))
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(name, sql.Source{Data: data, Scan: &source.ScanSpec{}})
	return data
}

func tableRows(t testing.TB, cat *Catalog, name string) []tuple.Row {
	t.Helper()
	src, ok := cat.Source(name)
	if !ok {
		t.Fatalf("table %q not registered", name)
	}
	return src.Data.Rows
}

// sameArray reports whether two non-empty row slices share a backing array.
func sameArray(a, b []tuple.Row) bool { return &a[0] == &b[0] }

// TestAppendCostsTheDelta: once the first append after registration has
// copied the table into an array the catalog owns, appending 4 rows to a
// 100k-row table allocates a table header and a wake-up channel — not the
// table. The bound leaves room for one amortised regrowth; copy-on-publish
// cost 2.4 MB per append here.
func TestAppendCostsTheDelta(t *testing.T) {
	const base, appends, per = 100_000, 1_000, 4
	cat := NewCatalog(0, "")
	putSeq(t, cat, "t", base)
	batch := func(i int) []tuple.Row {
		rows := make([]tuple.Row, per)
		for j := range rows {
			rows[j] = intRow(int64(base+i*per+j), 1)
		}
		return rows
	}
	if _, err := cat.Append("t", batch(0)); err != nil { // the copying append
		t.Fatal(err)
	}
	batches := make([][]tuple.Row, appends)
	for i := range batches {
		batches[i] = batch(i + 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	total := 0
	for _, rows := range batches {
		n, err := cat.Append("t", rows)
		if err != nil {
			t.Fatal(err)
		}
		total = n
	}
	runtime.ReadMemStats(&after)
	if want := base + (appends+1)*per; total != want || len(tableRows(t, cat, "t")) != want {
		t.Fatalf("total rows = %d (table holds %d), want %d", total, len(tableRows(t, cat, "t")), want)
	}
	if perAppend := (after.TotalAlloc - before.TotalAlloc) / appends; perAppend >= 4<<10 {
		t.Errorf("an append of %d rows to a %dk-row table allocates %d bytes, want < 4 kB", per, base/1000, perAppend)
	}
}

// TestAppendPrefixStable runs under -race in CI: while one writer appends 10k
// rows, readers take snapshots at whatever lengths they catch and keep
// re-reading them. Every snapshot keeps its length and its contents — the
// writer only ever writes past every published length.
func TestAppendPrefixStable(t *testing.T) {
	const base, grow, per = 1_000, 10_000, 4
	cat := NewCatalog(0, "")
	putSeq(t, cat, "t", base)

	check := func(rows []tuple.Row, n int) bool {
		if len(rows) != n {
			return false
		}
		for i, r := range rows {
			if len(r) != 2 || r[0].I != int64(i) {
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			type snap struct {
				rows []tuple.Row
				n    int
			}
			var held []snap
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				rows := tableRows(t, cat, "t")
				if len(held) < 64 && (len(held) == 0 || held[len(held)-1].n != len(rows)) {
					held = append(held, snap{rows, len(rows)})
				}
				for _, s := range held {
					if !check(s.rows, s.n) {
						t.Errorf("a snapshot taken at %d rows changed under the writer (len now %d)", s.n, len(s.rows))
						return
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
			if len(held) < 2 {
				t.Errorf("reader caught %d distinct lengths; the test exercised nothing", len(held))
			}
		}()
	}
	for i := base; i < base+grow; i += per {
		rows := make([]tuple.Row, per)
		for j := range rows {
			rows[j] = intRow(int64(i+j), 1)
		}
		if _, err := cat.Append("t", rows); err != nil {
			t.Fatal(err)
		}
		if i%400 == 0 {
			time.Sleep(100 * time.Microsecond) // let the readers catch intermediate lengths
		}
	}
	close(done)
	readers.Wait()
	if rows := tableRows(t, cat, "t"); !check(rows, base+grow) {
		t.Errorf("final table has %d rows or wrong contents, want %d", len(rows), base+grow)
	}
}

// TestAppendNeverAliases: the catalog appends in place only into arrays it
// allocated. One table registered under two names diverges cleanly, and a
// table whose Rows were sliced from an array the caller keeps writing is
// copied before the first append touches it.
func TestAppendNeverAliases(t *testing.T) {
	cat := NewCatalog(0, "")
	shared := putSeq(t, cat, "a", 3)
	cat.Put("b", sql.Source{Data: shared, Scan: &source.ScanSpec{}})
	for i, name := range []string{"a", "b", "a", "b"} {
		if _, err := cat.Append(name, []tuple.Row{intRow(int64(100+i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string][]int64{"a": {0, 1, 2, 100, 102}, "b": {0, 1, 2, 101, 103}} {
		rows := tableRows(t, cat, name)
		if len(rows) != len(want) {
			t.Fatalf("table %s has %d rows, want %d", name, len(rows), len(want))
		}
		for i, r := range rows {
			if r[0].I != want[i] {
				t.Errorf("table %s row %d key = %d, want %d (the other name's rows leaked in)", name, i, r[0].I, want[i])
			}
		}
	}
	if len(shared.Rows) != 3 {
		t.Errorf("the registered table itself grew to %d rows", len(shared.Rows))
	}

	// A caller-owned array with spare capacity: rows[:2] registered, slot 2
	// written by the caller before and after the catalog's append.
	backing := make([]tuple.Row, 3, 16)
	copy(backing, seqRows(3, 7))
	sentinel := backing[2]
	data, err := source.NewTable(shared.Schema, backing[:2])
	if err != nil {
		t.Fatal(err)
	}
	cat.Put("c", sql.Source{Data: data, Scan: &source.ScanSpec{}})
	if _, err := cat.Append("c", []tuple.Row{intRow(200, 1)}); err != nil {
		t.Fatal(err)
	}
	if backing[2][0].I != sentinel[0].I {
		t.Errorf("Append scribbled on the caller's array: slot 2 key = %d, want %d", backing[2][0].I, sentinel[0].I)
	}
	backing[2] = intRow(999, 1)
	if rows := tableRows(t, cat, "c"); len(rows) != 3 || rows[2][0].I != 200 {
		t.Errorf("the caller's later write reached the catalog's table: %v", rows)
	}
}

// TestAppendOwnershipAcrossDDL: declaring an index keeps the entry's data
// table, so the next append still lands in the same array; a REGISTER over
// the name — even of the very table the catalog published — drops ownership,
// so the next append copies.
func TestAppendOwnershipAcrossDDL(t *testing.T) {
	cat := NewCatalog(0, "")
	putSeq(t, cat, "t", 8)
	appendOne := func(k int64) []tuple.Row {
		t.Helper()
		if _, err := cat.Append("t", []tuple.Row{intRow(k, 1)}); err != nil {
			t.Fatal(err)
		}
		return tableRows(t, cat, "t")
	}
	first := appendOne(100) // copies: the array is now the catalog's
	if cap(first) < len(first)+2 {
		t.Fatalf("the copying append left cap %d for %d rows; the in-place checks below need spare capacity", cap(first), len(first))
	}
	if err := cat.AddIndex("t", "a", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if src, _ := cat.Source("t"); len(src.Indexes) != 1 || !sameArray(src.Data.Rows, first) {
		t.Fatal("AddIndex replaced the entry's data table")
	}
	second := appendOne(101)
	if !sameArray(second, first) {
		t.Error("the append after AddIndex copied the table; ownership must survive an index declaration")
	}
	if len(first) != 9 || len(second) != 10 || second[9][0].I != 101 {
		t.Errorf("lengths %d, %d after two appends to 8 rows", len(first), len(second))
	}

	src, _ := cat.Source("t")
	cat.Put("t", src)
	third := appendOne(102)
	if sameArray(third, second) {
		t.Error("the append after a REGISTER over the name wrote into the old array; it must copy")
	}
	if len(third) != 11 || len(second) != 10 {
		t.Errorf("lengths %d, %d after the re-register append", len(third), len(second))
	}
}

// TestSQLInsertOwnsItsStrings: a string INSERTed through SQL and read back
// from the catalog shares no bytes with the statement text — a stored row
// must not keep a whole request alive for the life of the table.
func TestSQLInsertOwnsItsStrings(t *testing.T) {
	cat := NewCatalog(0, "")
	sch, err := schema.NewTable("people", schema.IntCol("id"), schema.StrCol("name"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := source.NewTable(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat.Put("people", sql.Source{Data: data, Scan: &source.ScanSpec{}})
	src := "INSERT INTO people VALUES (1, 'ann'), (2, 'O''Brien')"
	st, err := sql.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*sql.InsertStmt)
	if _, err := cat.Append(ins.Table, ins.RowValues()); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	for i, row := range tableRows(t, cat, "people") {
		s := row[1].S
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if p < hi && p+uintptr(len(s)) > lo {
			t.Errorf("row %d's %q aliases the request's bytes", i, s)
		}
	}
}
