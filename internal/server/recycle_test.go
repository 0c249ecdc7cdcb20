package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/value"
)

// TestRecycledDictsAcrossQueries alternates two joins that share nothing —
// different tables, different arities, one join column against two — so the
// dictionary one releases is the dictionary the other acquires, retargeted.
// Every reply is compared with the brute-force oracle, first sequentially and
// then from 8 goroutines at once (CI runs this under -race: a dictionary used
// after its release would be written by two queries).
func TestRecycledDictsAcrossQueries(t *testing.T) {
	cat := NewCatalog(0, "")
	add := func(name string, cols []string, n int, row func(i int64) tuple.Row) {
		sc := make([]schema.Column, len(cols))
		for i, c := range cols {
			sc[i] = schema.IntCol(c)
		}
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = row(int64(i))
		}
		cat.Put(name, sql.Source{Data: source.MustTable(schema.MustTable(name, sc...), rows), Scan: &source.ScanSpec{}})
	}
	add("a", []string{"k", "v"}, 300, func(i int64) tuple.Row { return intRow(i, i%40) })
	add("b", []string{"k", "w"}, 200, func(i int64) tuple.Row { return intRow(i%50, i) })
	add("c", []string{"id", "g", "h"}, 150, func(i int64) tuple.Row { return intRow(i, i%7, i%5) })
	add("d", []string{"g", "z"}, 100, func(i int64) tuple.Row { return intRow(i%9, i%6) })
	queries := []string{
		"SELECT * FROM a, b WHERE a.v = b.k",
		"SELECT * FROM c, d WHERE c.g = d.g AND c.h = d.z",
	}

	// What the oracle says, and how to key a reply row the way it does.
	bound := make([]*sql.Bound, len(queries))
	want := make([]oracle.Result, len(queries))
	for i, text := range queries {
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if bound[i], err = sql.Bind(st, cat.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if want[i] = oracle.Compute(bound[i].Q); len(want[i]) == 0 {
			t.Fatalf("%s: the oracle found no rows", text)
		}
	}
	keyed := func(qi int, rows []map[string]any) oracle.Result {
		q := bound[qi].Q
		got := make(oracle.Result, len(rows))
		for _, r := range rows {
			out := &tuple.Tuple{Comp: make([]tuple.Row, len(q.Tables))}
			for ti, tab := range q.Tables {
				comp := make(tuple.Row, tab.Arity())
				for _, oc := range bound[qi].Output {
					if oc.Table == ti {
						comp[oc.Col] = value.NewInt(int64(r[oc.Name].(float64)))
					}
				}
				out.Comp[ti], out.Span = comp, out.Span.With(ti)
			}
			got[out.ResultKey()]++
		}
		return got
	}

	_, ts, client := newTestServer(t, cat, Config{MaxInFlight: 8, QueueDepth: 64})
	run := func(who string, i int) {
		qi := i % len(queries)
		res := postQuery(t, client, ts.URL, map[string]any{"sql": queries[qi]})
		if res.status != http.StatusOK || res.errLine != "" {
			t.Errorf("%s run %d: status=%d err=%q", who, i, res.status, res.errLine)
			return
		}
		if missing, extra := oracle.Diff(want[qi], keyed(qi, res.rows)); len(missing) > 0 || len(extra) > 0 {
			t.Errorf("%s run %d (%s): %d results missing, %d extra", who, i, queries[qi], len(missing), len(extra))
		}
	}
	for i := 0; i < 20; i++ {
		run("sequential", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				run(fmt.Sprintf("worker %d", w), w+i)
			}
		}(w)
	}
	wg.Wait()

	met := metricsBody(t, client, ts.URL)
	if !strings.Contains(met, `stemsd_stem_dict_acquires_total{source="new"} `) {
		t.Fatal(`/metrics has no stemsd_stem_dict_acquires_total{source="new"} series`)
	}
	if metricValue(t, met, `stemsd_stem_dict_acquires_total{source="recycled"}`) == 0 {
		t.Error("100 alternating joins recycled no dictionary")
	}
}
