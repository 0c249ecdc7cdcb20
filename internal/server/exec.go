// exec.go executes one statement for one request: parse, admit, take the
// statement's plan entry (bound against a catalog snapshot), take or build
// an execution handle (internal/core), and stream results back as NDJSON
// while they are produced — straight from the engine's column vectors where
// results arrive as a columnar batch, one Write per batch. A handle — policy,
// router, engine — serves one query at a time; only the catalog's source
// tables and shared SteMs are shared between running queries, and those are
// immutable.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/value"
)

// execStats summarizes one query's execution for the trailer, metrics, and
// the completed-queries ring.
type execStats struct {
	Rows      int
	Routed    uint64
	Builds    uint64
	Probes    uint64
	Elapsed   time.Duration
	QueueWait time.Duration
	CacheHit  bool
	Shared    bool
	// Trace carries the run's collector snapshot; the policy state is
	// included only when the request asked for an explain.
	Trace trace.Record
}

// userError marks failures caused by the request (parse, bind, bad knobs),
// reported as 400 rather than 500.
type userError struct{ err error }

func (e userError) Error() string { return e.err.Error() }
func (e userError) Unwrap() error { return e.err }

const hexDigits = "0123456789abcdef"

// appendRowJSON appends one NDJSON result line — {"row":{...}}\n — keyed by
// the projected column labels. Hand-rolled: per-row encoding is the serving
// hot path, and the map + reflection route of encoding/json costs dozens of
// allocations per row.
func appendRowJSON(buf []byte, t *tuple.Tuple, out []sql.OutputCol) []byte {
	buf = append(buf, `{"row":{`...)
	for k, oc := range out {
		buf = appendMemberJSON(buf, k, oc.Name, t.Value(oc.Table, oc.Col))
	}
	return append(buf, '}', '}', '\n')
}

// appendColRowJSON is appendRowJSON for physical row i of a columnar batch:
// the same line, read from the vectors without a tuple in between.
func appendColRowJSON(buf []byte, cb *flow.ColBatch, i int, out []sql.OutputCol) []byte {
	buf = append(buf, `{"row":{`...)
	for k, oc := range out {
		buf = appendMemberJSON(buf, k, oc.Name, cb.Value(oc.Table, oc.Col, i))
	}
	return append(buf, '}', '}', '\n')
}

// appendMemberJSON appends member k of a row object: separator, key, value.
func appendMemberJSON(buf []byte, k int, name string, v value.V) []byte {
	if k > 0 {
		buf = append(buf, ',')
	}
	buf = append(appendJSONString(buf, name), ':')
	switch v.K {
	case value.Int:
		return strconv.AppendInt(buf, v.I, 10)
	case value.Str:
		return appendJSONString(buf, v.S)
	default:
		return append(buf, "null"...)
	}
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters (the only bytes JSON forbids raw). An
// NDJSON line must be UTF-8 (RFC 8259 §8.1), so each byte that is not part of
// a valid UTF-8 sequence is written as \ufffd, as encoding/json does.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case ch == '"' || ch == '\\':
			buf = append(buf, '\\', ch)
		case ch < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[ch>>4], hexDigits[ch&0xf])
		case ch < utf8.RuneSelf:
			buf = append(buf, ch)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				buf = append(buf, `\ufffd`...)
			} else {
				buf = append(buf, s[i:i+size]...)
			}
			i += size - 1
		}
	}
	return append(buf, '"')
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	if req.SQL == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New(`missing "sql" field`))
		return
	}
	st, err := sql.ParseStatement(req.SQL)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if req.Subscribe {
		// Only a SELECT (direct or via EXECUTE) can stand.
		switch st.(type) {
		case *sql.Stmt, *sql.ExecuteStmt:
		default:
			writeJSONError(w, http.StatusBadRequest, errors.New("subscribe requires a SELECT"))
			return
		}
	}
	switch st := st.(type) {
	case *sql.RegisterStmt:
		// Registrations pass the same drain barrier and admission gate as
		// queries: CSV loads are real memory/CPU work, so they must not
		// exceed MaxInFlight and must not outlive a Shutdown drain.
		if !s.beginQuery() {
			s.met.reject()
			writeJSONError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		defer s.queries.Done()
		if err := s.admit(r.Context()); err != nil {
			s.met.reject()
			code := http.StatusTooManyRequests
			if !errors.Is(err, errBusy) {
				code = http.StatusServiceUnavailable
			}
			writeJSONError(w, code, err)
			return
		}
		defer s.release()
		rows, err := s.cat.Apply(st)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err)
			return
		}
		s.met.register()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"registered": st.Name, "rows": rows})
	case *sql.InsertStmt:
		s.applyInsert(w, r, st.Table, st.RowValues())
	case *sql.PrepareStmt:
		s.handlePrepare(w, st)
	case *sql.ExecuteStmt:
		p, ok := s.lookupPrepared(st.Name)
		if !ok {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("no prepared statement %q (PREPARE it first)", st.Name))
			return
		}
		s.runQuery(w, r, &req, p.stmt, p.canon)
	case *sql.Stmt:
		// Ad-hoc SELECTs auto-prepare anonymously: the canonical text keys
		// the plan cache, so a repeated query reuses its plan without an
		// explicit PREPARE.
		s.runQuery(w, r, &req, st, "")
	}
}

// handlePrepare validates and registers a named statement. PREPARE is
// metadata-only — no admission slot, no execution — but it still respects
// the drain barrier, and it binds once against the current catalog so the
// client hears about unknown tables or columns at prepare time rather than
// on the first EXECUTE.
func (s *Server) handlePrepare(w http.ResponseWriter, st *sql.PrepareStmt) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	if _, err := sql.Bind(st.Select, s.cat.Snapshot()); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	p := &preparedStmt{name: st.Name, stmt: st.Select, canon: st.Select.Canonical(), created: time.Now()}
	if err := s.addPrepared(p); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"prepared": p.name, "sql": p.canon})
}

// deadlineError is the cancellation cause of a run that outlived its
// deadline. It carries the parts of its message and formats them only when
// someone reads it, which is rarely: most runs finish in time.
type deadlineError struct {
	what     string
	deadline time.Duration
}

func (e *deadlineError) Error() string {
	return e.what + " deadline " + e.deadline.String() + " exceeded"
}

// maxDeadlineMS is the largest deadline_ms a time.Duration holds (about 292
// years); a subscription asking for more is refused.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// spec is the part of a core.Spec bounded queries and subscriptions share:
// the request's routing policy over the operator's process-wide settings.
func (s *Server) spec(q *live, iq *query.Q) core.Spec {
	return core.Spec{
		Q:      iq,
		Engine: core.Concurrent,
		Policy: q.policy,
		Seed:   s.cfg.Seed,
	}
}

// live is one admitted SELECT — bounded or standing — from admission to its
// single observed exit: identity, routing policy, the cancellation chain,
// the NDJSON row sink's state, and the statistics the exit reports.
type live struct {
	w       http.ResponseWriter
	flusher http.Flusher
	req     *QueryRequest
	st      *sql.Stmt
	// canon is the statement's canonical text once known: a prepared
	// statement's, or the plan entry's; text renders it otherwise.
	canon string
	id    uint64
	// policy is the request's routing policy, or the server default: the one
	// execution setting a request can vary. It keys the plan, names the
	// core.Spec's policy and is reported in the query record. The seed is the
	// operator's, fixed for the process in Config.
	policy string

	ctx context.Context
	// cancel ends the whole chain; the sink calls it when the client stops
	// reading, which stops the eddy mid-route.
	cancel context.CancelCauseFunc
	start  time.Time
	stats  execStats

	// out labels the projected columns of each row; buf holds encoded rows not
	// yet written, in storage serve borrows from sinkBufs. started records that
	// bytes went out (the status line is gone; later errors are reported
	// in-band), sinkErr that a write failed (nobody is listening any more).
	out     []sql.OutputCol
	buf     []byte
	started bool
	sinkErr error
}

// sinkBufs pools the row-encoding buffers of the process, so a query does not
// regrow one from nothing. sinkChunk bounds what a sink holds unwritten: rows
// are written out whenever the buffer passes it. A buffer that still grew past
// sinkBufCap (one enormous row) is left to the collector, not pooled.
var sinkBufs = sync.Pool{New: func() any { return new([]byte) }}

const (
	sinkChunk  = 32 << 10
	sinkBufCap = 2 * sinkChunk
)

// emit streams one result row; it is the engines' tuple output hook, for the
// results that travel as rows (row-path configurations, delta rounds) and for
// buffered results after Arrange.
func (q *live) emit(t *tuple.Tuple, _ clock.Time) {
	if q.sinkErr == nil {
		q.buf = appendRowJSON(q.buf, t, q.out)
		q.write(1)
	}
}

// emitCols streams one columnar result batch; it is the engine's columnar
// output hook. The batch's live rows are encoded from the vectors and leave in
// one Write and one Flush, so the first row is not held back for the last.
func (q *live) emitCols(cb *flow.ColBatch, _ clock.Time) {
	pending := 0
	for k, n := 0, cb.Rows(); k < n && q.sinkErr == nil; k++ {
		q.buf = appendColRowJSON(q.buf, cb, cb.RowAt(k), q.out)
		if pending++; k == n-1 || len(q.buf) >= sinkChunk {
			q.write(pending)
			pending = 0
		}
	}
}

// write sends the rows encoded in buf to the client as one Write. Bounded
// queries flush every write (first-row latency is the online metric);
// subscriptions flush once per round. A failed write cancels the run: the
// client has hung up.
func (q *live) write(rows int) {
	_, err := q.w.Write(q.buf)
	q.buf = q.buf[:0]
	if err != nil {
		q.sinkErr = err
		q.cancel(fmt.Errorf("client write failed: %w", err))
		return
	}
	q.started = true
	q.stats.Rows += rows
	if !q.req.Subscribe {
		q.flush()
	}
}

func (q *live) flush() {
	if q.flusher != nil && q.sinkErr == nil {
		q.flusher.Flush()
	}
}

// takeStats records the handle's engine counters as the query's. They are
// cumulative over every round the handle ran, so one read when the query
// ends covers a subscription's whole life.
func (q *live) takeStats(ex *core.Exec) {
	st := ex.Stats()
	q.stats.Routed, q.stats.Builds, q.stats.Probes = st.RoutingSteps, st.Builds, st.IndexProbes
}

// text returns the statement's canonical text, rendering it on the paths
// that never looked up a plan.
func (q *live) text() string {
	if q.canon == "" {
		q.canon = q.st.Canonical()
	}
	return q.canon
}

// runQuery is the request prologue every SELECT shares, bounded or
// standing: drain barrier, cancellation chain, session attach, admission.
// canon is the statement's canonical text when the caller has it stored,
// else "".
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, req *QueryRequest, st *sql.Stmt, canon string) {
	var shape error // what is wrong with the request's shape; such requests never take a slot
	switch {
	case !req.Subscribe && len(req.Window) > 0:
		shape = errors.New(`"window" requires "subscribe": true (a bounded query's results would depend on scan interleaving)`)
	case req.Subscribe && req.Explain:
		shape = errors.New("explain is not supported on subscriptions")
	case req.Subscribe && req.DeadlineMS > maxDeadlineMS:
		shape = fmt.Errorf(`"deadline_ms" %d does not fit a duration (at most %d)`, req.DeadlineMS, maxDeadlineMS)
	default:
		// Checked by name: binding a plan entry (or building a policy) for a
		// name no policy answers to would fill the plan cache with plans
		// that can never run.
		shape = policy.CheckName(req.Policy)
	}
	if shape != nil {
		writeJSONError(w, http.StatusBadRequest, shape)
		return
	}
	// Register with the drain barrier first: Shutdown flips draining before
	// waiting, so a query that slips past the flag is still waited for.
	if !s.beginQuery() {
		s.met.reject()
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.queries.Done()

	// Cancellation chain: client disconnect (request context) → drain
	// (base context) → session close → deadline. Any of them cancels qctx,
	// which aborts the admission queue wait or stops the eddy mid-route.
	// The chain is built and the session attached BEFORE admission, so the
	// deadline bounds queue time too and a session DELETE cancels its
	// queued (not just executing) queries. A bounded query always has a
	// deadline (the server default, capped); a standing query's life is the
	// client's to bound, so it gets one only when it asks.
	qctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stopBase := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stopBase()

	// The cap is compared in milliseconds, before converting: a larger
	// deadline_ms would wrap around as a time.Duration.
	deadline, what := time.Duration(0), "query"
	switch {
	case req.Subscribe:
		deadline, what = time.Duration(req.DeadlineMS)*time.Millisecond, "subscription"
	case req.DeadlineMS <= 0:
		deadline = min(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	case req.DeadlineMS > s.cfg.MaxDeadline.Milliseconds():
		deadline = s.cfg.MaxDeadline
	default:
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		var cancelT context.CancelFunc
		qctx, cancelT = context.WithTimeoutCause(qctx, deadline, &deadlineError{what, deadline})
		defer cancelT()
	}

	q := &live{w: w, req: req, st: st, canon: canon, id: s.qid.Add(1), policy: req.Policy, ctx: qctx, cancel: cancel}
	if q.policy == "" {
		q.policy = s.cfg.Policy
	}
	if req.Session != "" {
		ss := s.attachQuery(req.Session, q.id, cancel)
		if ss == nil {
			writeJSONError(w, http.StatusConflict, fmt.Errorf("session %q is closed", req.Session))
			return
		}
		defer s.detachQuery(ss, q.id)
	}

	// A subscription holds its execution slot for its whole life:
	// MaxInFlight bounds queries and live subscribers together, so a
	// subscriber storm cannot oversubscribe the engine.
	admitStart := time.Now()
	if err := s.admit(qctx); err != nil {
		s.met.reject()
		if lg := s.cfg.Logger; lg != nil {
			lg.Warn("query rejected", slog.Uint64("query_id", q.id),
				slog.String("error", err.Error()), slog.String("sql", q.text()))
		}
		code := http.StatusTooManyRequests
		if !errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable // canceled while queued
			if errors.Is(qctx.Err(), context.DeadlineExceeded) {
				code = http.StatusGatewayTimeout
			}
		}
		writeJSONError(w, code, err)
		return
	}
	defer s.release()

	q.start = time.Now()
	q.flusher, _ = w.(http.Flusher)
	q.stats.QueueWait = q.start.Sub(admitStart)
	if lg := s.cfg.Logger; lg != nil && lg.Enabled(qctx, slog.LevelDebug) {
		lg.Debug("query admitted", slog.Uint64("query_id", q.id),
			slog.Float64("queue_ms", float64(q.stats.QueueWait)/float64(time.Millisecond)),
			slog.String("session", req.Session), slog.String("sql", q.text()))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.cfg.PprofLabels {
		// pprof labels are inherited by every goroutine the engine spawns,
		// so CPU profile samples attribute to the query that burned them.
		pprof.Do(qctx, pprof.Labels("query_id", strconv.FormatUint(q.id, 10)), func(ctx context.Context) {
			q.ctx = ctx
			s.serve(q)
		})
	} else {
		s.serve(q)
	}
}

// serve runs an admitted SELECT and is its single observed exit: whatever
// happens after admission — a bind error, a canceled run, a clean finish —
// reaches finishObserved exactly once, and then the client hears about it in
// the one way still open (HTTP status, in-band error line, or done trailer).
func (s *Server) serve(q *live) {
	bufp := sinkBufs.Get().(*[]byte)
	q.buf = (*bufp)[:0]
	defer func() {
		if cap(q.buf) <= sinkBufCap {
			*bufp = q.buf
			sinkBufs.Put(bufp)
		}
	}()
	var reason string
	var err error
	if q.req.Subscribe {
		reason, err = s.subscribe(q)
	} else {
		err = s.execute(q)
	}
	q.stats.Elapsed = time.Since(q.start)
	w := q.w
	if err != nil {
		cause, qs := err, statusError
		if q.ctx.Err() != nil {
			qs = statusCanceled
			if c := context.Cause(q.ctx); c != nil {
				cause = c
			}
		}
		s.finishObserved(q, qs, cause)
		switch {
		case q.sinkErr != nil:
			// The connection is gone; there is nobody to report to.
		case q.started:
			// Mid-stream: the status line is long gone; report in-band.
			json.NewEncoder(w).Encode(map[string]string{"error": cause.Error()})
		default:
			code := http.StatusInternalServerError
			switch {
			case errors.As(err, &userError{}):
				code = http.StatusBadRequest
			case qs == statusCanceled && errors.Is(q.ctx.Err(), context.DeadlineExceeded):
				code = http.StatusGatewayTimeout
			case qs == statusCanceled:
				code = http.StatusServiceUnavailable
			}
			writeJSONError(w, code, cause)
		}
		return
	}
	s.finishObserved(q, statusOK, nil)
	if q.req.Subscribe {
		fmt.Fprintf(w, `{"done":true,"id":%d,"rows":%d,"reason":%q}`+"\n", q.id, q.stats.Rows, reason)
	} else {
		fmt.Fprintf(w, `{"done":true,"id":%d,"rows":%d,"elapsed_ms":%g,"queue_ms":%g,"routing_steps":%d,"stem_builds":%d,"index_probes":%d}`+"\n",
			q.id, q.stats.Rows, float64(q.stats.Elapsed)/float64(time.Millisecond),
			float64(q.stats.QueueWait)/float64(time.Millisecond), q.stats.Routed, q.stats.Builds, q.stats.Probes)
		if q.req.Explain {
			json.NewEncoder(w).Encode(map[string]any{"trace": q.stats.Trace})
		}
	}
	q.flush()
}

// finishObserved folds one finished execution into the metrics, the
// completed-queries ring, and the structured log.
func (s *Server) finishObserved(q *live, qs queryStatus, cause error) {
	stats := &q.stats
	s.met.finishQuery(qs, stats.Rows, stats.Elapsed, stats.QueueWait, stats.Routed, stats.Builds, stats.Probes)
	lg := s.cfg.Logger
	if s.completed == nil && lg == nil {
		return
	}
	rec := queryRecord{
		ID:           q.id,
		Session:      q.req.Session,
		SQL:          q.text(),
		Policy:       q.policy,
		Status:       string(qs),
		Rows:         stats.Rows,
		QueueMS:      float64(stats.QueueWait) / float64(time.Millisecond),
		ElapsedMS:    float64(stats.Elapsed) / float64(time.Millisecond),
		RoutingSteps: stats.Routed,
		StemBuilds:   stats.Builds,
		IndexProbes:  stats.Probes,
		PlanCacheHit: stats.CacheHit,
		SharedStems:  stats.Shared,
		Start:        q.start,
		Modules:      stats.Trace.Modules,
	}
	if cause != nil {
		rec.Error = cause.Error()
	}
	if s.completed != nil {
		s.completed.add(rec)
	}
	if lg != nil {
		logFinished(lg, &rec, s.cfg.SlowQuery)
	}
}

// beginQuery registers the query with the drain barrier; it reports false
// when the server is draining and the query must not start.
func (s *Server) beginQuery() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.queries.Add(1)
	return true
}

// execute runs one bounded SELECT. Every query takes the same road: a plan
// entry supplies the bound statement (a cached one, or with the cache off a
// transient entry used once); shared SteMs are attached wherever the server
// has them; the execution handle comes out of the entry's pool, or is built
// by core when the pool has none for these shared states; and it goes back
// iff the run was clean.
//
// A pooled handle keeps its routing policy across executions — the plan key
// pins its name (the seed is process-wide), so reuse only ever continues the
// same learner, and a warm plan routes better than a cold one. Everything
// else is restored by Exec.Reset (internal/eddy/reset_test.go pins that a
// reset engine is indistinguishable from a fresh one). What the handle does
// not keep is its SteMs' dictionary storage: Exec.Release gives that to the
// process-wide pool the moment the rows have been streamed, where the next
// query of any plan finds it — an entry's own pool is emptied by the GC long
// before a rarely repeated statement comes round again.
func (s *Server) execute(q *live) error {
	snap, version := s.cat.SnapshotVersioned()
	entry, err := s.planFor(q, snap, version)
	if err != nil {
		return err
	}
	defer entry.unref()
	bound := entry.bound
	spec := s.spec(q, bound.Q)
	// The collector rides every execution: GET /queries records carry
	// module stats whether or not the request asked for an explain.
	spec.Trace = true
	// Attachments are per-execution (the sync.Pool may drop a handle at any
	// time, so a handle can never own a refcount): attach here, release after
	// the run has fully unwound — the engine leaves zero goroutines behind
	// when Run returns.
	shared, err := s.shared.planAttach(q.st, bound.Q, snap)
	if err != nil {
		return err
	}
	defer shared.release()
	if shared != nil {
		spec.Shared, q.stats.Shared = shared.states, true
	}

	// A pooled handle is reusable only if its router was built against
	// exactly these shared states: a rebuild after REGISTER or an eviction
	// yields a new *SharedState a stale router must not probe. (A bounded
	// query's Spec is always poolable: the concurrent engine, no windows.)
	ex, _ := entry.handles.Get().(*core.Exec)
	if ex != nil && !slices.Equal(ex.Shared(), spec.Shared) {
		ex = nil
	}
	if ex != nil {
		err = ex.Reset()
	} else {
		ex, err = core.Build(spec)
	}
	if err != nil {
		return userError{err}
	}

	err = s.stream(q, ex, bound)
	// Every handle gives its SteM storage back once the rows have been
	// streamed. Only cleanly completed handles go back in the pool, and
	// never into a dead entry (a handle built against an invalidated plan
	// must not serve a later execution).
	ex.Release()
	if err == nil && !entry.dead.Load() {
		entry.handles.Put(ex)
	}
	return err
}

// planFor returns the referenced plan entry to execute with: the cached one
// on a hit, else a freshly bound one — published when the cache is on,
// transient (used once, never listed, accepting no handle back) when it is
// off. The key is rendered into the row buffer, which stays empty until
// streaming starts, so a hit allocates nothing; only a miss copies the key
// into a string, and from then on the entry's text is the query's.
func (s *Server) planFor(q *live, snap sql.MapCatalog, version uint64) (*planEntry, error) {
	key := append(append(q.buf[:0], q.policy...), 0)
	if q.canon != "" {
		key = append(key, q.canon...)
	} else {
		key = q.st.AppendCanonical(key)
	}
	q.buf = key[:0]
	if s.plans != nil {
		if entry, hit := s.plans.acquire(key, version); hit {
			q.stats.CacheHit = true
			q.canon = entry.canon
			return entry, nil
		}
	}
	k := string(key)
	entry := &planEntry{key: k, policy: k[:len(q.policy)], canon: k[len(q.policy)+1:], version: version}
	q.canon = entry.canon
	var err error
	if entry.bound, err = sql.Bind(q.st, snap); err != nil {
		return nil, userError{err}
	}
	if s.plans == nil {
		entry.dead.Store(true)
		return entry, nil
	}
	return s.plans.insert(entry), nil
}

// stream runs the handle and feeds result rows to the client. Rows stream
// as the eddy emits them — the sink owns them, and the run returns none of
// those that arrived as columns — unless the statement has ORDER BY or LIMIT
// (both are applied above the eddy, so those queries install no hook, take
// the run's return value and arrange it first). Engine-level statistics are
// recorded even on a canceled run.
func (s *Server) stream(q *live, ex *core.Exec, bound *sql.Bound) error {
	q.out = bound.Output
	streaming := len(bound.OrderBy) == 0 && bound.Limit < 0
	var onOutput func(*tuple.Tuple, clock.Time)
	var onCols func(*flow.ColBatch, clock.Time)
	if streaming {
		onOutput, onCols = q.emit, q.emitCols
	}
	outs, err := ex.Run(q.ctx, onOutput, onCols)
	q.takeStats(ex)
	// The policy's learned state is snapshotted into the trace only when
	// the request asked for an explain.
	q.stats.Trace = ex.Record(q.req.Explain)
	if err != nil {
		return err
	}
	if !streaming {
		ts := make([]*tuple.Tuple, len(outs))
		for i, o := range outs {
			ts[i] = o.T
		}
		for _, t := range bound.Arrange(ts) {
			q.emit(t, 0)
		}
	}
	return q.sinkErr
}
