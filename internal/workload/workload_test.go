package workload

import (
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// TestTable3_R validates the paper's R source: 1000 rows, key is a primary
// key, a has (up to) 250 distinct values randomly assigned.
func TestTable3_R(t *testing.T) {
	r := RTable(RSpec{Rows: 1000, DistinctA: 250, Seed: 1})
	if len(r.Rows) != 1000 {
		t.Fatalf("R has %d rows, want 1000", len(r.Rows))
	}
	keys := make(map[string]bool)
	avals := make(map[int64]bool)
	for _, row := range r.Rows {
		keys[row[0].Key()] = true
		avals[row[1].I] = true
		if row[1].I < 0 || row[1].I >= 250 {
			t.Fatalf("a value %d out of range", row[1].I)
		}
	}
	if len(keys) != 1000 {
		t.Error("key must be a primary key")
	}
	if len(avals) < 200 || len(avals) > 250 {
		t.Errorf("distinct a values = %d, want ≈250", len(avals))
	}
}

// TestTable3_S validates S: keys x and y, identical values per row.
func TestTable3_S(t *testing.T) {
	s := STable(250, 0)
	if len(s.Rows) != 250 {
		t.Fatalf("S has %d rows", len(s.Rows))
	}
	for _, row := range s.Rows {
		if !row[0].Equal(row[1]) {
			t.Fatal("S tuples must have identical values of x and y")
		}
	}
	s2 := STable(10, 5)
	if s2.Rows[3][1].I != 8 {
		t.Error("y offset not applied")
	}
}

// TestTable3_T validates T: primary key table.
func TestTable3_T(t *testing.T) {
	tb := TTable(100)
	if len(tb.Rows) != 100 || tb.Schema.Arity() != 1 {
		t.Fatal("T shape wrong")
	}
	for i, row := range tb.Rows {
		if row[0].I != int64(i) {
			t.Fatal("T keys must be sequential")
		}
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	r := RTable(RSpec{Rows: 50, DistinctA: 10, Seed: 3})
	s := Shuffled(r, 7)
	if len(s.Rows) == 0 || &s.Rows[0] == &r.Rows[0] {
		t.Fatal("Shuffled must copy")
	}
	count := func(rows []tuple.Row) map[string]int {
		m := make(map[string]int)
		for _, row := range rows {
			m[row.Key()]++
		}
		return m
	}
	a, b := count(r.Rows), count(s.Rows)
	for k, n := range a {
		if b[k] != n {
			t.Fatal("Shuffled changed the multiset")
		}
	}
	// And it actually permutes (with overwhelming probability).
	same := true
	for i := range r.Rows {
		if !r.Rows[i].Equal(s.Rows[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("Shuffled left rows in place")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform("U", 100, 3, 10, 1)
	if len(u.Rows) != 100 || u.Schema.Arity() != 3 {
		t.Fatal("Uniform shape wrong")
	}
	for _, row := range u.Rows {
		for c := 1; c < 3; c++ {
			if row[c].I < 0 || row[c].I >= 10 {
				t.Fatal("Uniform out of domain")
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := RTable(RSpec{Rows: 20, DistinctA: 5, Seed: 9})
	b := RTable(RSpec{Rows: 20, DistinctA: 5, Seed: 9})
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatal("same seed must generate identical data")
		}
	}
	_ = value.NewInt(0)
}

func TestDefaultTiming(t *testing.T) {
	tm := DefaultTiming()
	if tm.IndexLatency == 0 || tm.RScanInterArrival == 0 || tm.IndexParallel == 0 {
		t.Error("default timing has zero fields")
	}
}
