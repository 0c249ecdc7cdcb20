// trace.go is the traced run: the outside-in layer budget. The harness, in
// its own process, replays the first ops of a workload through the same
// public calls internal/server/exec.go makes and records a span around each,
// so one op's time splits into sql, server, policy, eddy and module shares
// without a single line of the engine being edited. Spans stay in memory and
// are written to bench/out/trace-<workload>.json at the end; the numbers of
// the end-to-end run never see any of this.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

// tracedLoadShare is the share of -seconds the traced run spends on its load
// window (the counter-derived layer metrics need far fewer ops than the
// end-to-end medians); the rest of its budget goes to the replay.
const tracedLoadShare = 0.4

// replayOps is how many ops of the measured sequence the span replay covers.
const replayOps = 200

// spanCalibration is how many empty spans time the recorder itself.
const spanCalibration = 100000

// span is one timed call into a layer. Spans of one op share its id; parent
// is the index of the enclosing span, -1 for an op's root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans from the single goroutine that drives the replay, so
// the open-span stack is the causal chain. A nil tracer records nothing,
// which is how the replay runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStats is the per-name summary: total and self time medians. Self time
// is a span's duration minus what its child spans cover.
type spanStats struct {
	count  int
	totals []float64 // µs
	selfs  []float64 // µs
}

func (t *tracer) summarize() map[string]*spanStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.count++
		st.totals = append(st.totals, float64(d)/1e3)
		st.selfs = append(st.selfs, float64(d-child[i])/1e3)
	}
	return out
}

// medianUS is the median duration of the named span in µs, 0 when the
// workload never made that call.
func medianUS(sum map[string]*spanStats, name string) float64 {
	if st := sum[name]; st != nil {
		return median(st.totals)
	}
	return 0
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// realCompression is stemsd's default -compression, which the replay's
// engines run under like the server's.
const realCompression = 0.001

// shell is a cached plan's pooled router+engine, as in server/plancache.go.
type shell struct {
	version uint64
	bound   *sql.Bound
	r       *eddy.Router
	eng     *eddy.Concurrent
	states  []*stem.SharedState
}

// sharedBuild is one catalog-owned shared SteM state, stale once the table's
// data pointer moves (server/sharedstems.go's rule).
type sharedBuild struct {
	data  *source.Table
	state *stem.SharedState
}

// replayer executes ops in-process through the layers' public functions,
// mirroring executeCached's order of calls.
type replayer struct {
	tr       *tracer
	cat      *server.Catalog
	shared   bool // the workload runs stemsd with -shared-stems
	plans    map[string]*shell
	builds   map[string]*sharedBuild
	prepared map[string]*sql.Stmt
	checked  map[string]bool

	// The standing query of ingest_subscribe.
	standing *shell
	seen     int

	firstOutputs []float64           // ms, one per SELECT
	opMS         [nOpKinds][]float64 // each replayed op's wall time, by kind
}

// newReplayer registers the CSVs in dir and prepares hot; its tracer starts
// nil, so nothing is recorded until the caller sets one.
func newReplayer(dir string, shared bool) (*replayer, error) {
	rp := &replayer{
		cat:      server.NewCatalog(time.Microsecond, dir), // stemsd's default -scan-interval
		shared:   shared,
		plans:    map[string]*shell{},
		builds:   map[string]*sharedBuild{},
		prepared: map[string]*sql.Stmt{},
		checked:  map[string]bool{},
	}
	for _, t := range tableNames {
		if _, err := rp.cat.RegisterCSV(t, t+".csv", nil); err != nil {
			return nil, err
		}
	}
	st, err := sql.Parse(smallSQL)
	if err != nil {
		return nil, err
	}
	rp.prepared["hot"] = st
	return rp, nil
}

// timed runs f inside a span.
func (rp *replayer) timed(name string, f func()) {
	id := rp.tr.begin(name)
	f()
	rp.tr.end(id)
}

// do replays one op and checks its result against the reference.
func (rp *replayer) do(id int, o *op) error {
	if rp.tr != nil {
		rp.tr.op = id
	}
	root := rp.tr.begin("op." + opKindNames[o.kind])
	t0 := time.Now()
	defer func() {
		rp.opMS[o.kind] = append(rp.opMS[o.kind], ms(time.Since(t0)))
		rp.tr.end(root)
	}()
	switch o.kind {
	case opIngest:
		return rp.ingest(o)
	case opInsertSQL:
		var st sql.Statement
		var err error
		rp.timed("sql.ParseStatement", func() { st, err = sql.ParseStatement(o.sql) })
		if err != nil {
			return err
		}
		rows := st.(*sql.InsertStmt).RowValues()
		rp.timed("server.Catalog.Append", func() { _, err = rp.cat.Append("orders", rows) })
		return err
	default:
		bound, outs, err := rp.execSelect(o.sql)
		if err != nil {
			return err
		}
		return rp.check(o, bound, outs)
	}
}

// execSelect runs one SELECT or EXECUTE text the way executeCached does:
// parse, canonicalize, snapshot, then either rebind and build a fresh
// router+engine (plan-cache miss) or reset the pooled shell (hit), and run.
func (rp *replayer) execSelect(text string) (*sql.Bound, []eddy.Output, error) {
	var st sql.Statement
	var err error
	rp.timed("sql.ParseStatement", func() { st, err = sql.ParseStatement(text) })
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*sql.Stmt)
	if ex, isExec := st.(*sql.ExecuteStmt); isExec {
		sel, ok = rp.prepared[ex.Name], true
	}
	if !ok || sel == nil {
		return nil, nil, fmt.Errorf("replay: %q is not a SELECT", text)
	}
	var canon string
	rp.timed("sql.Stmt.Canonical", func() { canon = sel.Canonical() })
	var snap sql.MapCatalog
	var version uint64
	rp.timed("server.Catalog.Snapshot", func() { snap, version = rp.cat.SnapshotVersioned() })

	sh := rp.plans[canon]
	if sh == nil || sh.version != version {
		var bound *sql.Bound
		rp.timed("sql.Bind", func() { bound, err = sql.Bind(sel, snap) })
		if err != nil {
			return nil, nil, err
		}
		sh = &shell{version: version, bound: bound}
		rp.plans[canon] = sh
	}
	var states []*stem.SharedState
	if rp.shared {
		if states, err = rp.attach(sel, sh.bound, snap); err != nil {
			return nil, nil, err
		}
	}
	if sh.r != nil && sameStates(sh.states, states) {
		rp.timed("eddy.Reset", func() {
			sh.r.Reset(nil)
			sh.eng.Reset()
			sh.eng.SetClock(clock.NewReal(realCompression))
		})
	} else {
		var pol policy.Policy
		rp.timed("policy.ByName", func() { pol, err = policy.ByName("benefitcost", 1) })
		if err != nil {
			return nil, nil, err
		}
		ropts := eddy.Options{Policy: pol, Shards: 1}
		if states != nil {
			ropts.SharedFor = func(t int) *stem.SharedState { return states[t] }
		}
		rp.timed("eddy.NewRouter", func() { sh.r, err = eddy.NewRouter(sh.bound.Q, ropts) })
		if err != nil {
			return nil, nil, err
		}
		rp.timed("eddy.NewConcurrent", func() { sh.eng = eddy.NewConcurrent(sh.r, clock.NewReal(realCompression)) })
		sh.states = states
	}
	outs, firstOut, err := rp.run(sh, "eddy.RunContext", func() ([]eddy.Output, error) { return sh.eng.RunContext(context.Background()) })
	if err != nil {
		return nil, nil, err
	}
	rp.firstOutputs = append(rp.firstOutputs, ms(firstOut))
	return sh.bound, outs, nil
}

// run executes one engine round inside a span and reports when the first
// result reached OnOutput.
func (rp *replayer) run(sh *shell, name string, round func() ([]eddy.Output, error)) (outs []eddy.Output, firstOut time.Duration, err error) {
	sh.eng.BatchSize = eddy.DefaultBatchSize
	start := time.Now()
	sh.eng.OnOutput = func(*tuple.Tuple, clock.Time) {
		if firstOut == 0 {
			firstOut = time.Since(start)
		}
	}
	rp.timed(name, func() { outs, err = round() })
	sh.eng.OnOutput = nil
	if err == nil && sh.r.Stuck() > 0 {
		err = fmt.Errorf("replay: %d tuples had no legal route", sh.r.Stuck())
	}
	return outs, firstOut, err
}

// attach mirrors sharedStems.planAttach for the benchmark's connected
// equi-joins: the smallest table drives and stays private, every other table
// attaches a shared build keyed on its join columns, rebuilt when the
// table's data pointer has moved.
func (rp *replayer) attach(sel *sql.Stmt, bound *sql.Bound, snap sql.MapCatalog) ([]*stem.SharedState, error) {
	n := bound.Q.NumTables()
	driver := 0
	for i, ref := range sel.From {
		if len(snap[ref.Source].Data.Rows) < len(snap[sel.From[driver].Source].Data.Rows) {
			driver = i
		}
	}
	states := make([]*stem.SharedState, n)
	for i, ref := range sel.From {
		if i == driver {
			continue
		}
		data := snap[ref.Source].Data
		b := rp.builds[ref.Source]
		if b == nil || b.data != data {
			var st *stem.SharedState
			var err error
			rp.timed("stem.BuildShared", func() {
				st, err = stem.BuildShared(stem.SharedConfig{KeyCols: stem.JoinCols(bound.Q, i), Shards: 1}, data.Rows)
			})
			if err != nil {
				return nil, err
			}
			b = &sharedBuild{data: data, state: st}
			rp.builds[ref.Source] = b
		}
		states[i] = b.state
	}
	return states, nil
}

func sameStates(a, b []*stem.SharedState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subscribe binds the standing query and runs its snapshot round.
func (rp *replayer) subscribe() error {
	sel, err := sql.Parse(joinSQL)
	if err != nil {
		return err
	}
	snap, _ := rp.cat.SnapshotSubscribe()
	bound, err := sql.Bind(sel, snap)
	if err != nil {
		return err
	}
	pol, err := policy.ByName("benefitcost", 1)
	if err != nil {
		return err
	}
	r, err := eddy.NewRouter(bound.Q, eddy.Options{Policy: pol, Shards: 1})
	if err != nil {
		return err
	}
	rp.standing = &shell{bound: bound, r: r, eng: eddy.NewConcurrent(r, clock.NewReal(realCompression))}
	outs, _, err := rp.run(rp.standing, "eddy.RunContext", func() ([]eddy.Output, error) { return rp.standing.eng.RunContext(context.Background()) })
	if err != nil {
		return err
	}
	if len(outs) != nOrders {
		return fmt.Errorf("replay: standing snapshot has %d rows, reference %d", len(outs), nOrders)
	}
	rp.seen = len(snap["orders"].Data.Rows)
	return nil
}

// ingest appends an op's rows and runs the delta round a subscription would.
func (rp *replayer) ingest(o *op) error {
	rows := make([]tuple.Row, len(o.rows))
	for i, r := range o.rows {
		rows[i] = intRow(int64(r.id), int64(r.cust), int64(r.item), int64(r.total))
	}
	var err error
	rp.timed("server.Catalog.Append", func() { _, err = rp.cat.Append("orders", rows) })
	if err != nil {
		return err
	}
	src, _, _ := rp.cat.SourceGen("orders")
	sh := rp.standing
	n := sh.bound.Q.NumTables()
	var ts []*tuple.Tuple
	for _, row := range src.Data.Rows[rp.seen:] {
		ts = append(ts, tuple.NewSingleton(n, 1, row)) // orders is FROM position 1
	}
	rp.seen = len(src.Data.Rows)
	sh.eng.Reset()
	outs, _, err := rp.run(sh, "eddy.RunDelta", func() ([]eddy.Output, error) { return sh.eng.RunDelta(context.Background(), ts) })
	if err != nil {
		return err
	}
	return rp.check(o, sh.bound, outs)
}

// rowLine renders a result tuple as the NDJSON line stemsd would stream, so
// replay results compare against the same reference as the wire's.
func rowLine(t *tuple.Tuple, out []sql.OutputCol) string {
	return lineOf(out, func(i int) value.V { return t.Value(out[i].Table, out[i].Col) })
}

// lineOf renders projected values under their column labels.
func lineOf(out []sql.OutputCol, val func(i int) value.V) string {
	b := []byte(`{"row":{`)
	for i, oc := range out {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, oc.Name)
		b = append(b, ':')
		if v := val(i); v.K == value.Int {
			b = strconv.AppendInt(b, v.I, 10)
		} else {
			b = strconv.AppendQuote(b, v.S)
		}
	}
	return string(append(b, "}}"...))
}

// oracleLimit bounds the cartesian product internal/oracle is asked to
// enumerate; the big tables' 8×10⁸ combinations are far past it, so their
// statements are checked against the generator's reference alone.
const oracleLimit = 1 << 20

// check compares a replayed op's outputs with the reference: the row count
// always, the full multiset on the first op of each statement text — and
// there also against internal/oracle's brute-force result when the tables
// are small enough to enumerate.
func (rp *replayer) check(o *op, bound *sql.Bound, outs []eddy.Output) error {
	if len(outs) != len(o.want) {
		return fmt.Errorf("replay: %s: got %d rows, reference has %d", o.body, len(outs), len(o.want))
	}
	if o.kind != opIngest {
		if rp.checked[o.sql] {
			return nil
		}
		rp.checked[o.sql] = true
	}
	got := make([]string, len(outs))
	for i, out := range outs {
		got[i] = rowLine(out.T, bound.Output)
	}
	if !sameMultiset(got, o.want) {
		return fmt.Errorf("replay: %s: row multiset differs from the reference", o.body)
	}
	product := 1
	for _, a := range bound.Q.AMs {
		product *= max(len(a.Data.Rows), 1)
	}
	if o.kind == opIngest || product > oracleLimit {
		return nil
	}
	res := oracle.Result{}
	for _, out := range outs {
		res[out.T.ResultKey()]++
	}
	if missing, extra := oracle.Diff(oracle.Compute(bound.Q), res); len(missing)+len(extra) > 0 {
		return fmt.Errorf("replay: %s: oracle reports %d missing, %d extra results", o.sql, len(missing), len(extra))
	}
	return nil
}

// replay runs the warm-up (untraced) and then the first replayOps measured
// ops, recorded by tr, through a fresh replayer.
func (e *env) replay(lr *loadRun, tr *tracer) (*replayer, error) {
	dir, err := e.dataDir()
	if err != nil {
		return nil, err
	}
	p := lr.p
	if err := p.data.writeCSVs(dir); err != nil {
		return nil, err
	}
	rp, err := newReplayer(dir, len(lr.w.flags) > 0)
	if err != nil {
		return nil, err
	}
	// Warm-up runs untraced, like the server's before the measured window.
	for i := range p.warm {
		if i == p.warmJoins && lr.w.subscribes {
			if err := rp.subscribe(); err != nil {
				return nil, err
			}
		}
		if err := rp.do(-1, &p.warm[i]); err != nil {
			return nil, err
		}
	}
	rp.firstOutputs, rp.opMS = nil, [nOpKinds][]float64{}
	rp.tr = tr
	ops := p.head(replayOps)
	for i := range ops {
		if err := rp.do(i, &ops[i]); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// layerTable prints the span summary: the layer budget of one op.
func layerTable(sum map[string]*spanStats) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-28s %8s %14s %14s\n", "span", "count", "median µs", "median self µs")
	for _, n := range names {
		st := sum[n]
		fmt.Printf("  %-28s %8d %14.1f %14.1f\n", n, st.count, median(st.totals), median(st.selfs))
	}
}

// perLayer computes every per-layer metric of BENCHMARK.json for one traced
// run: counter deltas from the load window, span medians from the replay,
// and the module micro-drivers.
func (e *env) perLayer(lr *loadRun) (map[string]float64, error) {
	m := lr.counterMetrics()

	tr := newTracer()
	rp, err := e.replay(lr, tr)
	if err != nil {
		return nil, err
	}
	if len(tr.stack) != 0 {
		return nil, errors.New("trace: unbalanced spans")
	}
	// Tracing overhead, measured directly: what recording the primary op's
	// spans costs, as a share of that op. (Replaying twice, recorder off and
	// on, differs by ±10 % from run-to-run noise alone, which buries a cost
	// of a few spans per op.)
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < spanCalibration; i++ {
		scratch.end(scratch.begin("calibration"))
	}
	perSpanMS := ms(time.Since(t0)) / spanCalibration
	primary := "op." + opKindNames[lr.w.primary]
	spansPerOp := 0.0
	for _, s := range tr.spans {
		if s.Name == primary || (s.Parent >= 0 && tr.spans[s.Parent].Name == primary) {
			spansPerOp++
		}
	}
	spansPerOp /= float64(len(rp.opMS[lr.w.primary]))
	m["trace.overhead_pct"] = spansPerOp * perSpanMS / median(rp.opMS[lr.w.primary]) * 100
	if err := tr.write(filepath.Join(e.root, "bench", "out", "trace-"+lr.w.name+".json")); err != nil {
		return nil, err
	}
	sum := tr.summarize()
	ops := lr.p.head(replayOps)
	fmt.Printf("%s layer budget: %d spans over the first %d ops (written to bench/out/trace-%s.json)\n",
		lr.w.name, len(tr.spans), len(ops), lr.w.name)
	layerTable(sum)

	m["sql.parse_us"] = medianUS(sum, "sql.ParseStatement")
	m["sql.canonical_us"] = medianUS(sum, "sql.Stmt.Canonical")
	m["sql.bind_us"] = medianUS(sum, "sql.Bind")
	m["server.catalog_snapshot_us"] = medianUS(sum, "server.Catalog.Snapshot")
	m["policy.new_us"] = medianUS(sum, "policy.ByName")
	m["eddy.new_router_us"] = medianUS(sum, "eddy.NewRouter")
	m["eddy.new_engine_us"] = medianUS(sum, "eddy.NewConcurrent")
	m["eddy.reset_us"] = medianUS(sum, "eddy.Reset")
	m["eddy.run_ms"] = medianUS(sum, "eddy.RunContext") / 1000
	m["eddy.run_delta_us"] = medianUS(sum, "eddy.RunDelta")
	m["eddy.first_output_ms"] = median(rp.firstOutputs)

	// The server layer whole, then its own share: per op, the handler's
	// time minus what the replay of the same op spent in sql.* and the eddy.
	handler, err := e.handlerReplay(lr)
	if err != nil {
		return nil, err
	}
	below := make([]float64, len(handler))
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "sql.") || s.Name == "eddy.RunContext" {
			below[s.Op] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	var handlerMS, selfMS []float64
	for i, h := range handler {
		if ops[i].kind == lr.w.primary {
			handlerMS = append(handlerMS, h)
			selfMS = append(selfMS, h-below[i])
		}
	}
	m["server.handler_ms"] = median(handlerMS)
	m["server.self_ms"] = median(selfMS)
	m["stemsd.http_ms"] = median(latencies(lr.win.samples(), lr.w.primary, opLatency)) - m["server.handler_ms"]

	if err := e.moduleMetrics(lr, rp, m); err != nil {
		return nil, err
	}
	m["eddy.adaptivity_tax_x"] = ratio(m["eddy.run_ms"], m["yardstick.static_join_ms"])
	return m, nil
}

// delta is a counter's growth over the measured window.
func (lr *loadRun) delta(name string) float64 { return lr.after[name] - lr.before[name] }

// ratio is a/b, 0 when b is 0 (a workload that never exercised the layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the layer metrics stemsd's own counters give for
// free, plus the load generator's tails and non-primary ops.
func (lr *loadRun) counterMetrics() map[string]float64 {
	samples := lr.win.samples()
	n := float64(len(samples))
	hits, misses := lr.delta("stemsd_plan_cache_hits_total"), lr.delta("stemsd_plan_cache_misses_total")
	queries := lr.delta("stemsd_query_duration_seconds_count")
	primary := latencies(samples, lr.w.primary, opLatency)
	var explain struct{ stem, sm, am, probes, matches float64 }
	for _, x := range lr.explains {
		for _, mod := range x.Modules {
			switch {
			case len(mod.Name) >= 4 && mod.Name[:4] == "SteM":
				explain.stem += mod.Visits
				explain.probes += mod.Visits
				explain.matches += mod.Outputs
			case len(mod.Name) >= 2 && mod.Name[:2] == "SM":
				explain.sm += mod.Visits
			default:
				explain.am += mod.Visits
			}
		}
	}
	nx := float64(len(lr.explains))
	m, _ := lr.timeMetrics()
	maps.Copy(m, map[string]float64{
		"server.plancache_hit_ratio":            ratio(hits, hits+misses),
		"server.plancache_invalidations_per_op": lr.delta("stemsd_plan_cache_invalidations_total") / n,
		"server.exec_ms_per_op":                 ratio(lr.delta("stemsd_query_duration_seconds_sum")*1000, queries),
		"server.queue_ms_per_op":                ratio(lr.delta("stemsd_query_queue_seconds_sum")*1000, queries),
		"server.rows_streamed_per_op":           lr.delta("stemsd_rows_streamed_total") / n,
		"server.rejected_ops":                   lr.delta(`stemsd_queries_total{status="rejected"}`),
		"server.shared_builds":                  lr.delta("stemsd_shared_stem_builds_total"),
		"server.shared_attach_per_op":           lr.delta("stemsd_shared_stem_attached_total") / n,
		"server.shared_detaches":                lr.delta("stemsd_shared_stem_detaches_total"),
		"eddy.routing_steps_per_op":             lr.delta("stemsd_routing_steps_total") / n,
		"stem.builds_per_op":                    lr.delta("stemsd_stem_builds_total") / n,
		"stemsd.rss_peak_mb":                    lr.rssPeakMB,
		"loadgen.op_p95_ms":                     quantile(primary, 0.95),
		"loadgen.op_p99_ms":                     quantile(primary, 0.99),
		"loadgen.primary_samples":               float64(len(primary)),
		"loadgen.execute_p50_ms":                median(latencies(samples, opExecute, opLatency)),
		"loadgen.insert_ack_p50_ms":             median(append(latencies(samples, opIngest, ackLatency), latencies(samples, opInsertSQL, ackLatency)...)),
		"stem.visits_per_op":                    ratio(explain.stem, nx),
		"sm.visits_per_op":                      ratio(explain.sm, nx),
		"am.visits_per_op":                      ratio(explain.am, nx),
		"stem.selectivity":                      ratio(explain.matches, explain.probes),
	})
	return m
}
