package core

// The adaptivity tax: what the eddy costs over a plan fixed in advance. The
// same J(3) rows of fixturePaced(n, 0) run through a fixed-order hash join
// written here, with nothing the eddy adds (routing, timestamps, adaptivity),
// and through a warm concurrent Exec with a columnar sink under benefitcost
// and under fixed.
//
//	go test -run '^$' -bench AdaptivityTax -benchtime 2s -count 3 ./internal/core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/query"
	"repro/internal/tuple"
)

// staticJoin is the yardstick: R.a = S.x, S.y = T.key with S and T hashed
// and R probing, appending each (r, s, t) result to out[:0].
func staticJoin(rows [][]tuple.Row, out [][3]tuple.Row) [][3]tuple.Row {
	hs := make(map[int64][]tuple.Row, len(rows[1]))
	for _, s := range rows[1] {
		hs[s[0].I] = append(hs[s[0].I], s)
	}
	ht := make(map[int64][]tuple.Row, len(rows[2]))
	for _, t := range rows[2] {
		ht[t[0].I] = append(ht[t[0].I], t)
	}
	out = out[:0]
	for _, r := range rows[0] {
		for _, s := range hs[r[1].I] {
			for _, t := range ht[s[1].I] {
				out = append(out, [3]tuple.Row{r, s, t})
			}
		}
	}
	return out
}

// staticNs times the static join over rows, in ns per join.
func staticNs(rows [][]tuple.Row) float64 {
	var out [][3]tuple.Row
	for k := 1; ; k *= 2 {
		start := time.Now()
		for range k {
			out = staticJoin(rows, out)
		}
		if d := time.Since(start); d > 20*time.Millisecond {
			return float64(d.Nanoseconds()) / float64(k)
		}
	}
}

// warmExec builds a concurrent Exec over q under pol and runs it once.
func warmExec(tb testing.TB, q *query.Q, pol string) *Exec {
	ex, err := Build(Spec{Q: q, Engine: Concurrent, Policy: pol})
	if err != nil {
		tb.Fatal(err)
	}
	taxRound(tb, ex)
	return ex
}

// taxRound resets ex and runs it with a columnar sink, returning the run's
// routing steps and results.
func taxRound(tb testing.TB, ex *Exec) (steps, results uint64) {
	if err := ex.Reset(); err != nil {
		tb.Fatal(err)
	}
	outs, err := ex.Run(context.Background(), nil, func(cb *flow.ColBatch, _ clock.Time) { results += uint64(cb.Rows()) })
	if err != nil {
		tb.Fatal(err)
	}
	return ex.Stats().RoutingSteps, results + uint64(len(outs))
}

// BenchmarkAdaptivityTax reports each path's ns/op and allocs/op, and for the
// engine paths tax_x (ns/op over the static join's) and steps/result.
func BenchmarkAdaptivityTax(b *testing.B) {
	for _, n := range []int{1000, 4000, 8000, 16000} {
		q, rows := fixturePaced(n, 0)
		b.Run(fmt.Sprintf("rows=%d/static", n), func(b *testing.B) {
			b.ReportAllocs()
			var out [][3]tuple.Row
			for range b.N {
				out = staticJoin(rows, out)
			}
		})
		for _, pol := range []string{"benefitcost", "fixed"} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, pol), func(b *testing.B) {
				ex := warmExec(b, q, pol)
				defer ex.Release()
				b.ReportAllocs()
				b.ResetTimer()
				var steps, results uint64
				for range b.N {
					s, r := taxRound(b, ex)
					steps, results = steps+s, results+r
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/staticNs(rows), "tax_x")
				b.ReportMetric(float64(steps)/float64(results), "steps/result")
			})
		}
	}
}

// TestAdaptivityTaxPins pins what is deterministic enough to pin of a warm
// 1k-row run: its allocations and its routing steps per result, each at most
// the maximum measured over repeated runs plus 5 %. The run is inline (1,312
// rows), so a round that went back to goroutines would cross the allocation
// bound. Time stays ungated.
func TestAdaptivityTaxPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	q, rows := fixturePaced(1000, 0)
	for _, c := range []struct {
		pol           string
		allocs, steps float64
	}{
		{"benefitcost", 61, 4.872},
		{"fixed", 56, 4.630},
	} {
		ex := warmExec(t, q, c.pol)
		var steps, results uint64
		allocs := testing.AllocsPerRun(100, func() {
			s, r := taxRound(t, ex)
			steps, results = steps+s, results+r
		})
		ex.Release()
		if results != 101*uint64(len(rows[0])) {
			t.Fatalf("%s: %d results over 101 runs, want %d each", c.pol, results, len(rows[0]))
		}
		per := float64(steps) / float64(results)
		t.Logf("%s: %.1f allocations per warm run (bound %.1f), %.3f routing steps per result (bound %.3f)",
			c.pol, allocs, c.allocs*1.05, per, c.steps*1.05)
		if allocs > c.allocs*1.05 {
			t.Errorf("%s: a warm 1k-row run makes %.1f allocations, want at most %.1f", c.pol, allocs, c.allocs*1.05)
		}
		if per > c.steps*1.05 {
			t.Errorf("%s: %.3f routing steps per result, want at most %.3f", c.pol, per, c.steps*1.05)
		}
	}
}
