// Package workload builds the synthetic data sources of the paper's
// experimental study (Table 3) and general-purpose generators for tests and
// benchmarks.
//
// Table 3 of the paper:
//
//	R ⟨key:int, a:int⟩ — 1000 tuples, scan AM; key is the primary key, a has
//	  250 distinct values randomly assigned.
//	S ⟨x:int, y:int⟩  — asynchronous index AMs on both x and y; all S tuples
//	  have identical values of x and y.
//	T ⟨key:int⟩       — asynchronous index AM on primary key, plus a scan AM.
//
// "Index lookups are implemented as sleeps of identical duration."
package workload

import (
	"math/rand"

	"repro/internal/clock"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Timing collects the latency knobs of the paper's testbed. The defaults
// (DefaultTiming) are chosen so the regenerated figures land on the same
// axes as the paper's: query Q1 completes in roughly 400 virtual seconds and
// Q4's scans end near 59 virtual seconds.
type Timing struct {
	// RScanInterArrival paces the scan on R.
	RScanInterArrival clock.Duration
	// TScanInterArrival paces the scan on T.
	TScanInterArrival clock.Duration
	// IndexLatency is the identical sleep of every index lookup.
	IndexLatency clock.Duration
	// IndexParallel bounds concurrent outstanding lookups per index AM.
	IndexParallel int
}

// DefaultTiming returns the timing used by the experiment harness.
func DefaultTiming() Timing {
	return Timing{
		RScanInterArrival: 50 * clock.Millisecond,
		TScanInterArrival: 50 * clock.Millisecond,
		IndexLatency:      1500 * clock.Millisecond,
		IndexParallel:     1,
	}
}

// RSpec configures the generated R table.
type RSpec struct {
	Rows      int // 1000 in the paper
	DistinctA int // 250 in the paper
	Seed      int64
}

// RTable generates R ⟨key, a⟩: key = 0..Rows-1, a uniform over DistinctA
// values.
func RTable(spec RSpec) *source.Table {
	rng := rand.New(rand.NewSource(spec.Seed))
	sch := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	rows := make([]tuple.Row, spec.Rows)
	for i := range rows {
		rows[i] = tuple.Row{value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(spec.DistinctA)))}
	}
	return source.MustTable(sch, rows)
}

// STable generates S ⟨x, y⟩ with one row per distinct value 0..n-1 and
// y = f(x); the paper's S binds x and y identically, so y = x here. A second
// column variant (y = x + yOffset) supports the dual-index experiments.
func STable(n int, yOffset int64) *source.Table {
	sch := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{value.NewInt(int64(i)), value.NewInt(int64(i) + yOffset)}
	}
	return source.MustTable(sch, rows)
}

// TTable generates T ⟨key⟩ with keys 0..n-1.
func TTable(n int) *source.Table {
	sch := schema.MustTable("T", schema.IntCol("key"))
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{value.NewInt(int64(i))}
	}
	return source.MustTable(sch, rows)
}

// Shuffled returns a copy of the table with its rows in a random delivery
// order. Scan AMs deliver rows in table order; uncorrelated scan orders are
// what give the symmetric hash join its quadratic ramp (each arrival matches
// the other side with probability proportional to that side's progress).
func Shuffled(t *source.Table, seed int64) *source.Table {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Row, len(t.Rows))
	copy(rows, t.Rows)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return source.MustTable(t.Schema, rows)
}

// Uniform generates a table with the given column names, one key column
// (col 0, sequential) and uniformly random remaining columns over domain.
func Uniform(name string, rows, cols, domain int, seed int64) *source.Table {
	rng := rand.New(rand.NewSource(seed))
	sc := make([]schema.Column, cols)
	sc[0] = schema.IntCol("key")
	for c := 1; c < cols; c++ {
		sc[c] = schema.IntCol(string(rune('a' + c - 1)))
	}
	sch := schema.MustTable(name, sc...)
	out := make([]tuple.Row, rows)
	for i := range out {
		row := make(tuple.Row, cols)
		row[0] = value.NewInt(int64(i))
		for c := 1; c < cols; c++ {
			row[c] = value.NewInt(int64(rng.Intn(domain)))
		}
		out[i] = row
	}
	return source.MustTable(sch, out)
}
