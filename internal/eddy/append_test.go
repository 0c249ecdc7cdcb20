package eddy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/tuple"
)

// describeEmissions renders emissions by content — every header field, and
// each live row's values and build timestamps — so two services on twin
// modules compare equal whatever batches they allocated.
func describeEmissions(rows []flow.Emission, cols []flow.ColEmission) string {
	var sb strings.Builder
	for _, em := range rows {
		fmt.Fprintf(&sb, "row %v done=%b built=%v delay=%d\n", em.T, em.T.Done, em.T.Built, em.Delay)
	}
	for _, em := range cols {
		cb := em.B
		fmt.Fprintf(&sb, "cols span=%v done=%b built=%v prior=%v/%d am=%v matches=%v last=%d visits=%v\n",
			cb.Span, cb.Done, cb.Built, cb.PriorProber, cb.ProbeTable, cb.AMProbed, cb.HasMatches, cb.LastMatchTS, cb.Visits)
		for k := range cb.Rows() {
			i := cb.RowAt(k)
			for t := range cb.Span.Each {
				fmt.Fprintf(&sb, " %d:", t)
				for c := range cb.Tabs[t].Cols {
					fmt.Fprintf(&sb, "%v,", cb.Value(t, c, i))
				}
				fmt.Fprintf(&sb, "@%d", cb.TSAt(t, i))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestColServiceAppends is the ColModule contract: a service appends to the
// slices it is given. Two twin routers take the same services, the first with
// nil slices and the second with a one-entry prefix in each. The prefix must
// survive, and what follows it must equal the first router's emissions, on
// every column path: the AM scan, the SM pass and drop, the SteM build and
// duplicate consume, the probe, and the probe's split bounce.
func TestColServiceAppends(t *testing.T) {
	q, opts := j2Selection(0, 0)
	var twins [2]*Router
	for i := range twins {
		r, err := NewRouter(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		twins[i] = r
	}
	preRow := flow.Emit(tuple.NewSeed(2, 0))
	preCol := flow.ColEmission{B: flow.GetColBatch(2)}
	type served struct {
		rows []flow.Emission
		cols []flow.ColEmission
	}
	// serve runs one service on each twin's module, the input built per twin,
	// and checks the prefix, the agreement and the emission counts.
	serve := func(name string, mod func(*Router) flow.ColModule, in func(twin int) *flow.Batch, wantRows, wantCols int) (out [2]served) {
		t.Helper()
		for i, r := range twins {
			var rows []flow.Emission
			var cols []flow.ColEmission
			if i == 1 {
				rows, cols = []flow.Emission{preRow}, []flow.ColEmission{preCol}
			}
			rows, cols, _ = mod(r).ProcessColBatch(in(i), 0, rows, cols)
			if i == 1 {
				if len(rows) == 0 || rows[0] != preRow || len(cols) == 0 || cols[0] != preCol {
					t.Fatalf("%s: the prefix did not survive: %d rows, %d batches", name, len(rows), len(cols))
				}
				rows, cols = rows[1:], cols[1:]
			}
			out[i] = served{rows, cols}
		}
		if len(out[0].rows) != wantRows || len(out[0].cols) != wantCols {
			t.Fatalf("%s: %d row and %d column emissions, want %d and %d", name, len(out[0].rows), len(out[0].cols), wantRows, wantCols)
		}
		if a, b := describeEmissions(out[0].rows, out[0].cols), describeEmissions(out[1].rows, out[1].cols); a != b {
			t.Fatalf("%s: appended after a prefix:\n%s\nwant, as from nil slices:\n%s", name, b, a)
		}
		return out
	}
	amOn := func(tab int) func(*Router) flow.ColModule {
		return func(r *Router) flow.ColModule { return r.AMs()[tab] }
	}
	stemOn := func(tab int) func(*Router) flow.ColModule {
		return func(r *Router) flow.ColModule { return r.SteMs()[tab] }
	}
	sel := func(r *Router) flow.ColModule { return r.SMs()[0] }
	seed := func(am int) func(int) *flow.Batch {
		return func(int) *flow.Batch { return flow.BatchOf(tuple.NewSeed(2, am)) }
	}
	emitted := func(s [2]served, k int) func(int) *flow.Batch {
		return func(twin int) *flow.Batch { return &flow.Batch{Col: s[twin].cols[k].B} }
	}
	// fresh loads rows of R as an unbuilt scan batch carries them.
	rRows := q.AMs[0].Data.Rows
	fresh := func(rows []tuple.Row, done tuple.PredSet) func(int) *flow.Batch {
		return func(int) *flow.Batch {
			cb := flow.GetColBatch(2)
			cb.Span, cb.Done = tuple.Single(0), done
			cb.LoadRows(0, 2, rows)
			return &flow.Batch{Col: cb}
		}
	}

	scanR := serve("AM scan", amOn(0), seed(twins[0].amRefs[0][0].mod), 1, 1)
	passed := serve("SM pass", sel, emitted(scanR, 0), 0, 1)
	serve("SM drop", sel, fresh(rRows[100:], 0), 0, 0)
	scanS := serve("AM scan of S", amOn(1), seed(twins[0].amRefs[1][0].mod), 1, 1)
	serve("SteM build of S", stemOn(1), emitted(scanS, 0), 0, 1)
	builtR := serve("SteM build", stemOn(0), emitted(passed, 0), 0, 1)
	serve("SteM duplicate consume", stemOn(0), fresh(rRows[:100], passed[0].cols[0].B.Done), 0, 0)
	serve("SteM probe", stemOn(1), emitted(builtR, 0), 0, 1)
	// Unbuilt probers bounce (the scan cannot regenerate their results), and
	// the matched and the unmatched go back as two batches beside the matches.
	mixed := []tuple.Row{rRows[5], rowsOf([][]int64{{1000, 999}})[0], rRows[7]}
	serve("SteM split bounce", stemOn(1), fresh(mixed, 0), 0, 3)
}
