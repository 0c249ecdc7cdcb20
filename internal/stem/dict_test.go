package stem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pred"
	"repro/internal/tuple"
	"repro/internal/value"
)

func row(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

// dictsUnderTest makes fresh instances of the SteM's dictionary and of the
// list oracle the property tests compare it against.
func dictsUnderTest() map[string]func() dict {
	return map[string]func() dict{
		"hash": func() dict { return NewHashDict([]int{0, 1}) },
		"list": func() dict { return newListDict() },
	}
}

// TestDictContract checks the dictionary contract: Insert/Contains/Len
// agree, Candidates with an equality constraint returns every matching row
// (the SteM re-filters extras), and MaxTS tracks the largest timestamp.
func TestDictContract(t *testing.T) {
	for name, mk := range dictsUnderTest() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			n := 50
			for i := 0; i < n; i++ {
				d.Insert(row(int64(i%7), int64(i)), tuple.Timestamp(i+1))
			}
			if d.Len() != n {
				t.Fatalf("Len = %d, want %d", d.Len(), n)
			}
			if !d.Contains(row(3, 3)) {
				t.Error("Contains(inserted) = false")
			}
			if d.Contains(row(99, 99)) {
				t.Error("Contains(absent) = true")
			}
			if d.MaxTS() != tuple.Timestamp(n) {
				t.Errorf("MaxTS = %d, want %d", d.MaxTS(), n)
			}
			got := d.Candidates(Lookup{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(3)}})
			matches := 0
			for _, e := range got {
				if e.Row[0].Equal(value.NewInt(3)) {
					matches++
				}
			}
			want := 0
			for i := 0; i < n; i++ {
				if i%7 == 3 {
					want++
				}
			}
			if matches != want {
				t.Errorf("equality candidates: %d matching rows, want %d", matches, want)
			}
			// Full-scan lookup returns everything.
			if all := d.Candidates(Lookup{}); len(all) != n {
				t.Errorf("full scan = %d rows, want %d", len(all), n)
			}
		})
	}
}

// TestDictCandidatesNeverMiss is the property the SteM's correctness rests
// on: whatever the lookup, every stored row matching the equality
// constraints appears among the candidates.
func TestDictCandidatesNeverMiss(t *testing.T) {
	for name, mk := range dictsUnderTest() {
		t.Run(name, func(t *testing.T) {
			f := func(keys []uint8, probe uint8) bool {
				d := mk()
				want := 0
				for i, k := range keys {
					d.Insert(row(int64(k%5), int64(i)), tuple.Timestamp(i+1))
					if k%5 == probe%5 {
						want++
					}
				}
				got := 0
				for _, e := range d.Candidates(Lookup{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(int64(probe % 5))}}) {
					if e.Row[0].Equal(value.NewInt(int64(probe % 5))) {
						got++
					}
				}
				return got == want
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDictEvict checks eviction removes the oldest entry and updates
// Contains/Len.
func TestDictEvict(t *testing.T) {
	for name, mk := range dictsUnderTest() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 5; i++ {
				d.Insert(row(int64(i), int64(i)), tuple.Timestamp(i+1))
			}
			e, ok := d.Evict()
			if !ok || e.TS != 1 {
				t.Fatalf("Evict = %+v %v, want the oldest (ts 1)", e, ok)
			}
			if d.Len() != 4 || d.Contains(row(0, 0)) {
				t.Error("evicted row still visible")
			}
			for i := 0; i < 4; i++ {
				if _, ok := d.Evict(); !ok {
					t.Fatal("Evict failed with entries remaining")
				}
			}
			if _, ok := d.Evict(); ok {
				t.Error("Evict on empty dict must report !ok")
			}
		})
	}
}

// TestRangeCandidatesNeverMiss: a probe bound only by a comparison (band)
// join predicate presents a lookup with no equality constraint; the
// candidates must include every stored row that satisfies the comparison,
// for the SteM's predicate verification to pick out.
func TestRangeCandidatesNeverMiss(t *testing.T) {
	ops := []pred.Op{pred.Lt, pred.Le, pred.Gt, pred.Ge, pred.Ne}
	for name, mk := range dictsUnderTest() {
		t.Run(name, func(t *testing.T) {
			f := func(keys []uint8, bound uint8, opIdx uint8) bool {
				sel := pred.Selection(0, 0, ops[int(opIdx)%len(ops)], value.NewInt(int64(bound%16)))
				holds := func(r tuple.Row) bool { return sel.Eval(tuple.NewSingleton(1, 0, r)) }
				d := mk()
				want := 0
				for i, k := range keys {
					r := row(int64(k%16), int64(i))
					d.Insert(r, tuple.Timestamp(i+1))
					if holds(r) {
						want++
					}
				}
				got := 0
				for _, e := range d.Candidates(Lookup{}) {
					if holds(e.Row) {
						got++
					}
				}
				return got == want
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestHashDictPicksNarrowestIndex(t *testing.T) {
	d := NewHashDict([]int{0, 1})
	// Column 0 has one big bucket; column 1 is unique.
	for i := 0; i < 20; i++ {
		d.Insert(row(1, int64(i)), tuple.Timestamp(i+1))
	}
	got := d.Candidates(Lookup{
		EquiCols: []int{0, 1},
		EquiVals: []value.V{value.NewInt(1), value.NewInt(7)},
	})
	if len(got) != 1 {
		t.Errorf("narrowest-index lookup returned %d candidates, want 1", len(got))
	}
}

func TestDictRandomizedAgainstReference(t *testing.T) {
	// Reference model: a plain slice with linear filtering.
	for name, mk := range dictsUnderTest() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := mk()
			var ref []Entry
			for op := 0; op < 500; op++ {
				switch rng.Intn(10) {
				case 9:
					e, ok := d.Evict()
					if len(ref) == 0 {
						if ok {
							t.Fatal("evicted from empty")
						}
						continue
					}
					oldest := 0
					for i, r := range ref {
						if r.TS < ref[oldest].TS {
							oldest = i
						}
					}
					if !ok || e.TS != ref[oldest].TS {
						t.Fatalf("evict mismatch: got ts %d want %d", e.TS, ref[oldest].TS)
					}
					ref = append(ref[:oldest], ref[oldest+1:]...)
				default:
					r := row(int64(rng.Intn(6)), int64(op))
					d.Insert(r, tuple.Timestamp(op+1))
					ref = append(ref, Entry{Row: r, TS: tuple.Timestamp(op + 1)})
				}
				if d.Len() != len(ref) {
					t.Fatalf("op %d: Len %d != ref %d", op, d.Len(), len(ref))
				}
			}
			// Spot-check every key's candidate set against the reference.
			for k := int64(0); k < 6; k++ {
				want := map[string]int{}
				for _, e := range ref {
					if e.Row[0].Equal(value.NewInt(k)) {
						want[fmt.Sprint(e.TS)]++
					}
				}
				got := map[string]int{}
				for _, e := range d.Candidates(Lookup{EquiCols: []int{0}, EquiVals: []value.V{value.NewInt(k)}}) {
					if e.Row[0].Equal(value.NewInt(k)) {
						got[fmt.Sprint(e.TS)]++
					}
				}
				for ts, n := range want {
					if got[ts] != n {
						t.Fatalf("key %d ts %s: got %d want %d", k, ts, got[ts], n)
					}
				}
			}
		})
	}
}
