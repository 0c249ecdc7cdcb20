// Package stems is an adaptive query processor built from State Modules
// (SteMs) and an eddy tuple router, reproducing "Using State Modules for
// Adaptive Query Processing" (Raman, Deshpande, Hellerstein — ICDE 2003).
//
// Instead of fixing a query plan, the engine instantiates one access module
// per access method, one selection module per predicate, and one SteM (a
// "half-join": a dictionary handling builds and probes) per base table, then
// routes tuples among them under the correctness constraints of the paper's
// Table 2. Join order, join algorithm, access-method choice and spanning
// tree all emerge from routing and adapt continuously at run time.
//
// Quick start:
//
//	q := stems.NewQuery().
//		Table("R", stems.Ints("key", "a"), [][]int64{{1, 10}, {2, 20}}).
//		Table("S", stems.Ints("x", "y"), [][]int64{{10, 100}, {20, 200}}).
//		Scan("R", 10*time.Millisecond).
//		Scan("S", 10*time.Millisecond).
//		Where("R.a", "=", "S.x")
//	res, err := q.Run(stems.Options{})
//
// Two engines execute the same modules: a deterministic discrete-event
// simulator on a virtual clock (the default; regenerates the paper's
// time-series figures exactly) and a concurrent goroutine-per-module engine
// on a real clock (one virtual second per wall millisecond).
package stems

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eddy"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Value is a scalar query value (integer or string).
type Value = value.V

// Int wraps an integer as a query value.
func Int(i int64) Value { return value.NewInt(i) }

// Str wraps a string as a query value.
func Str(s string) Value { return value.NewStr(s) }

// Col declares a typed column.
type Col struct {
	Name string
	Str  bool
}

// Ints declares integer columns with the given names.
func Ints(names ...string) []Col {
	out := make([]Col, len(names))
	for i, n := range names {
		out[i] = Col{Name: n}
	}
	return out
}

// Engine selects the execution engine.
type Engine = core.Engine

const (
	// Sim is the deterministic discrete-event simulator (default).
	Sim = core.Sim
	// Concurrent runs a goroutine per module worker over channels.
	Concurrent = core.Concurrent
)

// Policy selects the routing policy.
type Policy int

const (
	// BenefitCost is the paper's Section 4.1 online policy (default).
	BenefitCost Policy = iota
	// Fixed is the deterministic n-ary-SHJ priority order.
	Fixed
	// Lottery is the ticket-based policy of the original eddies paper.
	Lottery
)

// Options configures a run.
type Options struct {
	Engine Engine
	Policy Policy
	// Context, when non-nil, cancels the run: deadlines, client
	// disconnects, and server shutdown stop the eddy mid-query instead of
	// letting it route to completion. The run returns the results produced
	// so far plus an error wrapping Context.Err(). RunContext sets this
	// from its argument.
	Context context.Context
	// Seed feeds the randomized policies; 0 means 1.
	Seed int64
	// BounceForIndexChoice makes SteMs on tables with index AMs bounce
	// incomplete probes so the eddy can hybridize index and hash joins
	// (Section 4.3).
	BounceForIndexChoice bool
	// SkipBuildTable names a table to run in the Section 3.5 relaxed mode:
	// its tuples are never materialized and act as pure probers. Empty
	// disables.
	SkipBuildTable string
	// Window bounds SteM sizes per table name for sliding-window streaming
	// queries (0 or absent = unbounded).
	Window map[string]int
	// Shared attaches pre-built shared SteM state by table name (see
	// Query.BuildSharedState): the named tables get probe-only attached
	// SteMs over the sealed shared dictionary instead of private builds,
	// and their access methods are not run — the state already holds every
	// row. Results are multiset-identical to a run without attachments. At
	// least one table must stay unattached (its scan drives the dataflow),
	// and any number of concurrent Runs may attach the same state. Shared
	// tables cannot be windowed.
	Shared map[string]*SharedState
	// Deadline stops the simulation engine at the given virtual time
	// (for continuous queries); zero runs to completion.
	Deadline time.Duration
	// OnResult, if non-nil, streams each result as it is produced.
	OnResult func(Row)
	// OnPartial, if non-nil, streams intermediate partial results — tuples
	// spanning two or more (but not all) tables — as modules emit them.
	// These are the online-metric currency of the paper's interactive FFF
	// setting (Section 3.4). Simulation engine only.
	OnPartial func(Row)
	// Explain collects per-module execution statistics into Result.Explain.
	// Both engines support it; the simulation engine additionally reports
	// the emission span histogram.
	Explain bool
}

// Row is one result: a full concatenation of base-table components.
type Row struct {
	// At is the virtual time the result was emitted.
	At time.Duration
	q  *query.Q
	t  *tuple.Tuple
}

// Get returns the value of "Table.column"; ok is false if the reference is
// unknown or — for partial results — the row does not span that table.
func (r Row) Get(ref string) (Value, bool) {
	ti, ci, err := resolveRef(r.q, ref)
	if err != nil || !r.t.Span.Has(ti) {
		return Value{}, false
	}
	return r.t.Value(ti, ci), true
}

// String renders the row as Table(v1,v2) pairs in FROM order; tables a
// partial result does not span render as Table(?).
func (r Row) String() string {
	var b strings.Builder
	for i, tb := range r.q.Tables {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tb.Name)
		if r.t.Span.Has(i) {
			b.WriteString(r.t.Comp[i].String())
		} else {
			b.WriteString("(?)")
		}
	}
	return b.String()
}

// Result is a completed (or deadline-stopped) query run.
type Result struct {
	Rows []Row
	// Stats summarizes the run.
	Stats RunStats
	// Explain holds the per-module execution report when Options.Explain
	// was set.
	Explain string
}

// RunStats carries run-level counters.
type RunStats struct {
	// RoutingSteps is the number of eddy routing decisions.
	RoutingSteps uint64
	// IndexProbes counts remote index lookups across all AMs.
	IndexProbes uint64
	// SteMBuilds counts rows materialized across all SteMs.
	SteMBuilds uint64
	// Duration is the virtual completion time.
	Duration time.Duration
}

// Query under construction. Methods panic on structurally invalid input at
// Run time (with a descriptive error), not during building.
type Query struct {
	tables []*schema.Table
	data   map[string]*source.Table
	order  map[string]int
	preds  []pred.P
	ams    []query.AMDecl
	errs   []error
}

// NewQuery starts an empty query.
func NewQuery() *Query {
	return &Query{data: make(map[string]*source.Table), order: make(map[string]int)}
}

// Table adds a base table with integer/string columns and row data. Integer
// columns take their values from rows; declare string columns with Col{Str:
// true} and supply values via TableValues instead.
func (q *Query) Table(name string, cols []Col, rows [][]int64) *Query {
	vrows := make([][]Value, len(rows))
	for i, r := range rows {
		vr := make([]Value, len(r))
		for j, v := range r {
			vr[j] = Int(v)
		}
		vrows[i] = vr
	}
	return q.TableValues(name, cols, vrows)
}

// TableValues adds a base table with explicit Value rows.
func (q *Query) TableValues(name string, cols []Col, rows [][]Value) *Query {
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		k := value.Int
		if c.Str {
			k = value.Str
		}
		sc[i] = schema.Column{Name: c.Name, Kind: k}
	}
	sch, err := schema.NewTable(name, sc...)
	if err != nil {
		q.errs = append(q.errs, err)
		return q
	}
	trows := make([]tuple.Row, len(rows))
	for i, r := range rows {
		trows[i] = tuple.Row(r)
	}
	data, err := source.NewTable(sch, trows)
	if err != nil {
		q.errs = append(q.errs, err)
		return q
	}
	if _, dup := q.order[name]; dup {
		q.errs = append(q.errs, fmt.Errorf("stems: duplicate table %q", name))
		return q
	}
	q.order[name] = len(q.tables)
	q.tables = append(q.tables, sch)
	q.data[name] = data
	return q
}

// Scan declares a scan access method on the table, delivering one row per
// interArrival.
func (q *Query) Scan(table string, interArrival time.Duration) *Query {
	return q.ScanWithStalls(table, interArrival)
}

// Stall describes a scan delivery gap (a delayed Web source).
type Stall struct {
	AfterRows int
	For       time.Duration
}

// ScanWithStalls declares a scan access method with delivery gaps.
func (q *Query) ScanWithStalls(table string, interArrival time.Duration, stalls ...Stall) *Query {
	ti, ok := q.order[table]
	if !ok {
		q.errs = append(q.errs, fmt.Errorf("stems: Scan on unknown table %q", table))
		return q
	}
	spec := source.ScanSpec{InterArrival: dur(interArrival)}
	for _, s := range stalls {
		spec.Stalls = append(spec.Stalls, source.Stall{AfterRows: s.AfterRows, For: dur(s.For)})
	}
	q.ams = append(q.ams, query.AMDecl{Table: ti, Kind: query.Scan, Data: q.data[table], ScanSpec: spec})
	return q
}

// Index declares an asynchronous index access method on the table over the
// named key columns, with the given per-lookup latency and concurrency.
func (q *Query) Index(table string, keyCols []string, latency time.Duration, parallel int) *Query {
	ti, ok := q.order[table]
	if !ok {
		q.errs = append(q.errs, fmt.Errorf("stems: Index on unknown table %q", table))
		return q
	}
	cols := make([]int, len(keyCols))
	for i, c := range keyCols {
		ci := q.tables[ti].ColIndex(c)
		if ci < 0 {
			q.errs = append(q.errs, fmt.Errorf("stems: Index on unknown column %s.%s", table, c))
			return q
		}
		cols[i] = ci
	}
	q.ams = append(q.ams, query.AMDecl{Table: ti, Kind: query.Index, Data: q.data[table],
		IndexSpec: source.IndexSpec{KeyCols: cols, Latency: dur(latency), Parallel: parallel}})
	return q
}

// Mirror declares an additional access method backed by different data for
// the same logical table — a competing source (Section 3.2). kind is "scan"
// or "index".
func (q *Query) Mirror(table string, rows [][]int64, interArrival time.Duration) *Query {
	ti, ok := q.order[table]
	if !ok {
		q.errs = append(q.errs, fmt.Errorf("stems: Mirror on unknown table %q", table))
		return q
	}
	trows := make([]tuple.Row, len(rows))
	for i, r := range rows {
		vr := make(tuple.Row, len(r))
		for j, v := range r {
			vr[j] = Int(v)
		}
		trows[i] = vr
	}
	data, err := source.NewTable(q.tables[ti], trows)
	if err != nil {
		q.errs = append(q.errs, err)
		return q
	}
	q.ams = append(q.ams, query.AMDecl{Table: ti, Kind: query.Scan, Data: data,
		ScanSpec: source.ScanSpec{InterArrival: dur(interArrival)}})
	return q
}

// Where adds a predicate. left must be "Table.column"; op is one of
// = <> < <= > >=; right is either "Table.column" (a join) or a constant
// integer literal, e.g. Where("R.a", "=", "S.x") or Where("R.key", "<=", "10").
func (q *Query) Where(left, op, right string) *Query {
	o, err := parseOp(op)
	if err != nil {
		q.errs = append(q.errs, err)
		return q
	}
	lt, lc, err := q.resolve(left)
	if err != nil {
		q.errs = append(q.errs, err)
		return q
	}
	if strings.Contains(right, ".") {
		rt, rc, err := q.resolve(right)
		if err != nil {
			q.errs = append(q.errs, err)
			return q
		}
		q.preds = append(q.preds, pred.Join(lt, lc, o, rt, rc))
		return q
	}
	i, err := strconv.ParseInt(right, 10, 64)
	if err != nil {
		// Treat as a string constant.
		q.preds = append(q.preds, pred.Selection(lt, lc, o, Str(right)))
		return q
	}
	q.preds = append(q.preds, pred.Selection(lt, lc, o, Int(i)))
	return q
}

func (q *Query) resolve(ref string) (int, int, error) {
	parts := strings.SplitN(ref, ".", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("stems: column reference %q is not Table.column", ref)
	}
	ti, ok := q.order[parts[0]]
	if !ok {
		return 0, 0, fmt.Errorf("stems: unknown table in %q", ref)
	}
	ci := q.tables[ti].ColIndex(parts[1])
	if ci < 0 {
		return 0, 0, fmt.Errorf("stems: unknown column in %q", ref)
	}
	return ti, ci, nil
}

func resolveRef(q *query.Q, ref string) (int, int, error) {
	parts := strings.SplitN(ref, ".", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("stems: column reference %q is not Table.column", ref)
	}
	for ti, t := range q.Tables {
		if t.Name == parts[0] {
			if ci := t.ColIndex(parts[1]); ci >= 0 {
				return ti, ci, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("stems: unknown reference %q", ref)
}

func parseOp(op string) (pred.Op, error) {
	switch op {
	case "=", "==":
		return pred.Eq, nil
	case "<>", "!=":
		return pred.Ne, nil
	case "<":
		return pred.Lt, nil
	case "<=":
		return pred.Le, nil
	case ">":
		return pred.Gt, nil
	case ">=":
		return pred.Ge, nil
	default:
		return 0, fmt.Errorf("stems: unknown operator %q", op)
	}
}

func dur(d time.Duration) clock.Duration { return clock.Duration(d) }

// Build validates the query and returns the internal representation; most
// callers use Run.
func (q *Query) Build() (*query.Q, error) {
	if len(q.errs) > 0 {
		return nil, q.errs[0]
	}
	return query.New(q.tables, q.preds, q.ams)
}

// SharedState is catalog-style shared SteM state over one table's rows:
// a sealed, immutable in-memory dictionary built once with
// Query.BuildSharedState and attached by any number of concurrent Runs via
// Options.Shared.
type SharedState struct {
	inner *stem.SharedState
	table string
}

// Rows returns the number of distinct rows the state stores.
func (s *SharedState) Rows() int { return s.inner.Rows() }

// BuildSharedState builds sealed shared SteM state over the named table's
// rows, indexed on the table's join columns in this query — what a server
// catalog does once per (table, join columns) so concurrent queries attach
// instead of rebuilding.
func (q *Query) BuildSharedState(table string) (*SharedState, error) {
	iq, err := q.Build()
	if err != nil {
		return nil, err
	}
	ti, ok := q.order[table]
	if !ok {
		return nil, fmt.Errorf("stems: BuildSharedState table %q unknown", table)
	}
	cols := stem.JoinCols(iq, ti)
	if len(cols) == 0 {
		return nil, fmt.Errorf("stems: table %q has no join columns to index shared state on", table)
	}
	inner, err := stem.BuildShared(stem.SharedConfig{KeyCols: cols}, q.data[table].Rows)
	if err != nil {
		return nil, err
	}
	return &SharedState{inner: inner, table: table}, nil
}

// RunContext executes the query under a cancellation context: when ctx is
// canceled the engine stops routing and RunContext returns the results
// produced so far plus an error wrapping ctx.Err(). It is Run with
// Options.Context set.
func (q *Query) RunContext(ctx context.Context, opts Options) (*Result, error) {
	opts.Context = ctx
	return q.Run(opts)
}

// Run executes the query and collects all results.
func (q *Query) Run(opts Options) (*Result, error) {
	iq, err := q.Build()
	if err != nil {
		return nil, err
	}
	spec, err := q.spec(iq, opts)
	if err != nil {
		return nil, err
	}
	ex, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	defer ex.Release()
	outs, err := ex.Run(opts.Context, rowHook(iq, opts.OnResult), nil)
	if err != nil {
		return nil, err
	}
	res := newResult(iq, ex.Stats(), outs)
	if opts.Explain {
		res.Explain = ex.Report()
	}
	return res, nil
}

// String returns the policy's internal/policy.ByName name.
func (p Policy) String() string {
	switch p {
	case Fixed:
		return "fixed"
	case Lottery:
		return "lottery"
	default:
		return "benefitcost"
	}
}

// spec is the one Options → core.Spec translation behind Run, Prepare and
// Open: it resolves table names to FROM positions and unwraps shared
// states; every default lives in core.
func (q *Query) spec(iq *query.Q, opts Options) (core.Spec, error) {
	sp := core.Spec{
		Q:        iq,
		Engine:   opts.Engine,
		Policy:   opts.Policy.String(),
		Seed:     opts.Seed,
		Deadline: clock.Time(opts.Deadline),
		Trace:    opts.Explain,
	}
	if opts.BounceForIndexChoice {
		sp.ProbeBounce = stem.BounceIfIndexAM
	}
	if opts.SkipBuildTable != "" {
		ti, ok := q.order[opts.SkipBuildTable]
		if !ok {
			return sp, fmt.Errorf("stems: SkipBuildTable %q unknown", opts.SkipBuildTable)
		}
		sp.SkipBuild, sp.SkipBuildTable = true, ti
	}
	if len(opts.Window) > 0 {
		sp.Windows = make([]int, len(q.tables))
		for name, w := range opts.Window {
			ti, ok := q.order[name]
			if !ok {
				return sp, fmt.Errorf("stems: Window table %q unknown", name)
			}
			sp.Windows[ti] = w
		}
	}
	if len(opts.Shared) > 0 {
		sp.Shared = make([]*stem.SharedState, len(q.tables))
		for name, ss := range opts.Shared {
			ti, ok := q.order[name]
			if !ok {
				return sp, fmt.Errorf("stems: Shared table %q unknown", name)
			}
			if ss == nil || ss.inner == nil {
				return sp, fmt.Errorf("stems: Shared state for %q is nil", name)
			}
			sp.Shared[ti] = ss.inner
		}
	}
	if onPartial := opts.OnPartial; onPartial != nil {
		if opts.Engine != Sim {
			return sp, fmt.Errorf("stems: OnPartial requires the simulation engine")
		}
		all := iq.AllTables()
		sp.OnEmit = func(t *tuple.Tuple, at clock.Time) {
			if t.EOT == nil && !t.Seed && t.Span.Count() >= 2 && t.Span != all {
				onPartial(Row{At: time.Duration(at), q: iq, t: t})
			}
		}
	}
	return sp, nil
}

// rowHook adapts an OnResult callback to the engines' output hook; nil when
// unset.
func rowHook(iq *query.Q, onResult func(Row)) func(*tuple.Tuple, clock.Time) {
	if onResult == nil {
		return nil
	}
	return func(t *tuple.Tuple, at clock.Time) {
		onResult(Row{At: time.Duration(at), q: iq, t: t})
	}
}

// newResult assembles a Result from one round's outputs and the handle's
// cumulative counters.
func newResult(iq *query.Q, st core.Stats, outs []eddy.Output) *Result {
	res := &Result{Stats: RunStats{
		RoutingSteps: st.RoutingSteps,
		IndexProbes:  st.IndexProbes,
		SteMBuilds:   st.Builds,
	}}
	for _, o := range outs {
		res.Rows = append(res.Rows, Row{At: time.Duration(o.At), q: iq, t: o.T})
		if time.Duration(o.At) > res.Stats.Duration {
			res.Stats.Duration = time.Duration(o.At)
		}
	}
	return res
}
