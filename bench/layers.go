// layers.go holds the traced run's direct measurements of single layers: the
// whole server layer through its http.Handler without a socket, the SteM, SM
// and AM modules driven through their flow interfaces over the workload's
// rows, the catalog's append and snapshot, a shared build, and the
// hand-written static hash join that is the yardstick for the eddy's
// adaptivity tax.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/am"
	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/pred"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

func intRow(vs ...int64) tuple.Row {
	r := make(tuple.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

// explainTrace is the trace trailer of an "explain":true reply, reduced to
// what the visit metrics need.
type explainTrace struct {
	Modules []struct {
		Name    string  `json:"name"`
		Visits  float64 `json:"visits"`
		Outputs float64 `json:"outputs"`
	} `json:"modules"`
}

// explainRequests is how many explain requests feed the visit metrics.
const explainRequests = 10

// collectExplains sends the workload's first SELECTs again with
// "explain":true, after the window's closing scrape, and keeps the traces.
func collectExplains(c *child, p *plan) ([]explainTrace, error) {
	var out []explainTrace
	for i := range p.ops {
		o := &p.ops[i]
		if o.kind != opJoin && o.kind != opSmall {
			continue
		}
		body, err := c.post("/query", `{"explain":true,`+o.body[1:])
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		var tr struct {
			Trace explainTrace `json:"trace"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || len(tr.Trace.Modules) == 0 {
			return nil, fmt.Errorf("bench: explain reply carries no trace: %v", err)
		}
		if out = append(out, tr.Trace); len(out) == explainRequests {
			break
		}
	}
	return out, nil
}

// handlerReplay pushes the replayed ops through server.New(...).Handler()
// against a ResponseRecorder — the whole server layer, JSON decode to NDJSON
// encode, without a socket — and returns each op's time in ms. The standing
// query is not part of it: a handler-level insert is append + ack.
func (e *env) handlerReplay(lr *loadRun) ([]float64, error) {
	dir, err := e.dataDir()
	if err != nil {
		return nil, err
	}
	if err := lr.p.data.writeCSVs(dir); err != nil {
		return nil, err
	}
	srv := server.New(server.NewCatalog(time.Microsecond, dir), server.Config{
		SharedStems: len(lr.w.flags) > 0,
		// stemsd logs every finished query at info; keep that cost in.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Shutdown(time.Second)
	h := srv.Handler()
	call := func(path, body string) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `{"error"`) {
			return d, fmt.Errorf("handler replay: POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		return d, nil
	}
	for _, t := range tableNames {
		if _, err := call("/query", registerSQL(t)); err != nil {
			return nil, err
		}
	}
	if _, err := call("/query", `{"sql":"PREPARE hot AS `+smallSQL+`"}`); err != nil {
		return nil, err
	}
	for i := range lr.p.warm {
		if _, err := call(lr.p.warm[i].path, lr.p.warm[i].body); err != nil {
			return nil, err
		}
	}
	ops := lr.p.head(replayOps)
	out := make([]float64, len(ops))
	for i := range ops {
		d, err := call(ops[i].path, ops[i].body)
		if err != nil {
			return nil, err
		}
		out[i] = ms(d)
	}
	return out, nil
}

// staticJoin is the yardstick: a hand-written, fixed-order hash join of
// a ⋈ b ⋈ c with b in the middle — both of the benchmark's joins have the
// shape a.col0 = b.col1 AND b.col2 = c.col0 — with the statement's one
// selection applied to its table's rows first and the same three-column
// projection. Everything the eddy adds (routing, timestamps, adaptivity) is
// absent, so eddy.run_ms over this is the adaptivity tax.
func staticJoin(tabs [3][]tuple.Row, sel *pred.P, out []sql.OutputCol) [][3]value.V {
	keep := func(t int, r tuple.Row) bool {
		if sel == nil || sel.Left.Table != t {
			return true
		}
		cmp := r[sel.Left.Col].Compare(*sel.Const)
		return (sel.Op == pred.Eq && cmp == 0) || (sel.Op == pred.Gt && cmp > 0)
	}
	ha := make(map[int64]tuple.Row, len(tabs[0]))
	for _, r := range tabs[0] {
		if keep(0, r) {
			ha[r[0].I] = r
		}
	}
	hc := make(map[int64]tuple.Row, len(tabs[2]))
	for _, r := range tabs[2] {
		if keep(2, r) {
			hc[r[0].I] = r
		}
	}
	var res [][3]value.V
	for _, r := range tabs[1] {
		ra, okA := ha[r[1].I]
		rc, okC := hc[r[2].I]
		if !okA || !okC || !keep(1, r) {
			continue
		}
		comp := [3]tuple.Row{ra, r, rc}
		var row [3]value.V
		for i, oc := range out {
			row[i] = comp[oc.Table][oc.Col]
		}
		res = append(res, row)
	}
	return res
}

// moduleMetrics drives the modules of the workload's primary SELECT one at
// a time over the catalog's rows as the replay left them.
func (e *env) moduleMetrics(lr *loadRun, rp *replayer, m map[string]float64) error {
	// The statement whose modules are driven: the primary SELECT, or for
	// ingest_subscribe the standing join.
	stmt := joinSQL
	for i := range lr.p.ops {
		if o := &lr.p.ops[i]; o.kind == lr.w.primary && o.kind != opIngest {
			stmt = o.sql
			break
		}
	}
	sel, err := sql.Parse(stmt)
	if err != nil {
		return err
	}
	snap := rp.cat.Snapshot()
	bound, err := sql.Bind(sel, snap)
	if err != nil {
		return err
	}
	q := bound.Q
	n := q.NumTables()
	rowsOf := func(pos int) []tuple.Row { return snap[sel.From[pos].Source].Data.Rows }

	// Start from a collected heap: the replay's garbage would otherwise bill
	// its collection to whichever driver runs first.
	runtime.GC()
	var scanNS, buildNS, probeNS, filterNS, matNS []float64
	for rep := 0; rep < e.moduleReps(); rep++ {
		pol, err := policy.ByName("benefitcost", 1)
		if err != nil {
			return err
		}
		r, err := eddy.NewRouter(q, eddy.Options{Policy: pol, Shards: 1})
		if err != nil {
			return err
		}
		// AM: each scan AM serves its seed, emitting the table as singletons.
		singles := make([][]*tuple.Tuple, n)
		t0 := time.Now()
		rows := 0
		for _, seed := range r.Seeds() {
			a := r.Modules()[seed.SeedAM].(*am.AM)
			ems, _ := a.Process(seed, 0)
			for _, em := range ems {
				if em.T.EOT == nil {
					singles[a.Table()] = append(singles[a.Table()], em.T)
					rows++
				}
			}
		}
		scanNS = append(scanNS, float64(time.Since(t0))/float64(rows))

		// SM: the statement's selection, if it has one, over its table.
		if sms := r.SMs(); len(sms) > 0 {
			tab := sms[0].Pred().Left.Table
			t0 = time.Now()
			for _, b := range batches(singles[tab]) {
				sms[0].ProcessBatch(b, 0)
			}
			filterNS = append(filterNS, float64(time.Since(t0))/float64(len(singles[tab])))
		}

		// SteM build: every table's singletons into its own SteM, the middle
		// table last so its bounced-back tuples can probe the others.
		t0 = time.Now()
		built := 0
		var bounced []*tuple.Tuple
		for _, tab := range []int{0, 2, 1} {
			for _, b := range batches(singles[tab]) {
				ems, _ := r.SteMs()[tab].ProcessBatch(b, 0)
				built += len(ems)
				if tab == 1 {
					for _, em := range ems {
						bounced = append(bounced, em.T)
					}
				}
			}
		}
		if built != rows {
			return fmt.Errorf("module driver: %d of %d builds bounced back", built, rows)
		}
		buildNS = append(buildNS, float64(time.Since(t0))/float64(rows))

		// SteM probe: the middle table's built tuples probe table 0's SteM;
		// every one finds its single match.
		t0 = time.Now()
		matches := 0
		for _, b := range batches(bounced) {
			ems, _ := r.SteMs()[0].ProcessBatch(b, 0)
			for _, em := range ems {
				if em.T.Span.Count() == 2 {
					matches++
				}
			}
		}
		if matches != len(bounced) {
			return fmt.Errorf("module driver: %d probes found %d matches", len(bounced), matches)
		}
		probeNS = append(probeNS, float64(time.Since(t0))/float64(len(bounced)))

		// Materialize: the middle table as one columnar batch, back to rows.
		mid := rowsOf(1)
		cb := flow.GetColBatch(n)
		cb.Span = tuple.Single(1)
		tab := cb.EnsureCols(1, len(mid[0]))
		for _, row := range mid {
			for c := range row {
				tab.Cols[c].AppendV(row[c])
			}
		}
		cb.SetRowCount(len(mid))
		t0 = time.Now()
		ts := cb.Materialize()
		matNS = append(matNS, float64(time.Since(t0))/float64(len(ts)))
		flow.PutColBatch(cb)
	}
	m["am.scan_ns_per_row"] = median(scanNS)
	m["sm.filter_ns_per_row"] = median(filterNS)
	m["stem.build_ns_per_row"] = median(buildNS)
	m["stem.probe_ns_per_row"] = median(probeNS)
	m["flow.materialize_ns_per_row"] = median(matNS)

	// A shared build over the middle table, as -shared-stems makes after
	// every invalidation.
	var sharedMS []float64
	for rep := 0; rep < e.moduleReps(); rep++ {
		t0 := time.Now()
		ss, err := stem.BuildShared(stem.SharedConfig{KeyCols: stem.JoinCols(q, 1), Shards: 1}, rowsOf(1))
		if err != nil {
			return err
		}
		sharedMS = append(sharedMS, ms(time.Since(t0)))
		ss.Close()
	}
	m["stem.shared_build_ms"] = median(sharedMS)

	// The yardstick over the same rows; its result must be the eddy's.
	var selection *pred.P
	for i := range q.Preds {
		if p := &q.Preds[i]; !p.IsJoin() {
			if selection != nil || (p.Op != pred.Eq && p.Op != pred.Gt) {
				return fmt.Errorf("yardstick: %s has a selection shape the static join does not know", stmt)
			}
			selection = p
		}
	}
	tabs := [3][]tuple.Row{rowsOf(0), rowsOf(1), rowsOf(2)}
	var yard []float64
	var res [][3]value.V
	for rep := 0; rep < e.moduleReps(); rep++ {
		t0 := time.Now()
		res = staticJoin(tabs, selection, bound.Output)
		yard = append(yard, ms(time.Since(t0)))
	}
	m["yardstick.static_join_ms"] = median(yard)
	rp.tr = nil
	_, outs, err := rp.execSelect(stmt)
	if err != nil {
		return err
	}
	got, want := make([]string, len(res)), make([]string, len(outs))
	for i, row := range res {
		got[i] = lineOf(bound.Output, func(j int) value.V { return row[j] })
	}
	for i, o := range outs {
		want[i] = rowLine(o.T, bound.Output)
	}
	if !sameMultiset(got, want) {
		return fmt.Errorf("yardstick: the static join's %d rows are not the eddy's %d", len(got), len(want))
	}

	return e.catalogMetrics(lr, m)
}

// batches splits tuples into engine-sized batches.
func batches(ts []*tuple.Tuple) []*flow.Batch {
	var out []*flow.Batch
	for len(ts) > 0 {
		k := min(eddy.DefaultBatchSize, len(ts))
		out = append(out, flow.BatchOf(ts[:k]...))
		ts = ts[k:]
	}
	return out
}

// appendSizes are the orders row counts at which Catalog.Append is timed:
// the start, the middle and the end of ingest_subscribe's growth.
var appendSizes = []struct {
	rows int
	name string
}{{4000, "server.catalog_append_us.4k"}, {32000, "server.catalog_append_us.32k"}, {100000, "server.catalog_append_us.100k"}}

// catalogMetrics times Catalog.Append of one 4-row ingest at three table
// sizes on a scratch catalog.
func (e *env) catalogMetrics(lr *loadRun, m map[string]float64) error {
	dir, err := e.dataDir()
	if err != nil {
		return err
	}
	if err := lr.p.data.writeCSVs(dir); err != nil {
		return err
	}
	cat := server.NewCatalog(time.Microsecond, dir)
	if _, err := cat.RegisterCSV("orders", "orders.csv", nil); err != nil {
		return err
	}
	next := int64(1 << 40) // ids no generated order uses
	grow := func(k int) error {
		rows := make([]tuple.Row, k)
		for i := range rows {
			rows[i] = intRow(next, next%nCustomers, next%nItems, 1)
			next++
		}
		_, err := cat.Append("orders", rows)
		return err
	}
	size := nOrders
	for _, at := range appendSizes {
		if at.rows > size {
			if err := grow(at.rows - size); err != nil {
				return err
			}
			size = at.rows
		}
		runtime.GC()
		var us []float64
		for rep := 0; rep < 3*e.moduleReps(); rep++ {
			t0 := time.Now()
			if err := grow(4); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0))/1e3)
			size += 4
		}
		m[at.name] = median(us)
	}
	return nil
}
