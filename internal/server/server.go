// Package server is the long-lived serving layer over the SteM/eddy engine:
// where the rest of the repository executes one query and exits, this
// package keeps a process alive with a shared mutable catalog of registered
// tables, accepts queries over HTTP/JSON, and executes each on its own
// concurrent engine under admission control (bounded in-flight queries and
// queue), per-query deadlines, session-scoped cancellation, and a graceful
// drain on shutdown. Results stream back as NDJSON as the eddy emits them —
// the paper's online, adaptive processing model surfaced as a service.
//
// Cancellation is threaded all the way down: a client disconnect, a
// deadline, a DELETE on the session, or a server drain cancels the query's
// context, which stops the eddy's routing loop and unwinds every engine
// goroutine (see eddy.Concurrent.RunContext).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/sql"
	"repro/internal/stem"
)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// QueueDepth bounds queries waiting for an execution slot beyond
	// MaxInFlight; an arrival beyond the queue is rejected with 429.
	// 0 disables queueing (fail fast at MaxInFlight); negative takes the
	// default of 16.
	QueueDepth int
	// DefaultDeadline applies to queries that name none (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 5m).
	MaxDeadline time.Duration
	// Policy is the default routing policy: "benefitcost" (default),
	// "fixed", or "lottery".
	Policy string
	// Seed feeds randomized policies (default 1). It applies to every query:
	// a request cannot override it.
	Seed int64
	// PlanCacheSize bounds the plan cache (LRU-evicted). 0 takes the default
	// of 128; negative: entries are transient, nothing is published or
	// pooled — every statement re-binds and builds its handle.
	PlanCacheSize int
	// SharedStems enables catalog-owned shared SteMs: the first query that
	// joins through a registered table builds its SteM state once, and
	// concurrent or later queries attach probe-only handles instead of
	// rebuilding (see sharedstems.go for the lifecycle rules). Off by
	// default — attachment changes memory ownership from per-query to
	// server-resident, which is an operator decision.
	SharedStems bool
	// SharedStemBytes, when >0, caps the total footprint of shared SteM
	// state; least-recently-attached unreferenced entries are evicted past
	// the cap. 0 is unlimited.
	SharedStemBytes int64
	// Logger receives structured per-query logs (admitted, finished, slow
	// queries). nil disables logging entirely — the default, so the serving
	// hot path pays nothing unless an operator opts in.
	Logger *slog.Logger
	// PprofLabels labels each query's goroutines with its query ID
	// (pprof.Do), so CPU profiles attribute samples to queries. Off by
	// default: the label set costs allocations per query.
	PprofLabels bool
	// SlowQuery logs queries whose execution time meets or exceeds it at
	// Warn level (requires Logger); 0 disables the threshold.
	SlowQuery time.Duration
	// CompletedCap bounds the completed-queries ring served by GET /queries
	// (default 256; negative disables the ring).
	CompletedCap int
	// Version is reported by stemsd_build_info; empty defaults to "dev".
	Version string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 16
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.Policy == "" {
		c.Policy = "benefitcost"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 128
	}
	if c.CompletedCap == 0 {
		c.CompletedCap = 256
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// errBusy rejects an arrival past the admission queue.
var errBusy = errors.New("server at capacity")

// errDraining rejects work while the server shuts down.
var errDraining = errors.New("server draining")

// session groups queries under one client-visible ID so they can be
// enumerated and canceled together. Sessions created explicitly with
// POST /session persist until DELETE; sessions auto-created by naming one
// in a query are reaped as soon as their last query detaches, so a client
// minting a fresh session ID per query cannot grow the session map without
// bound.
type session struct {
	id       string
	created  time.Time
	explicit bool

	mu     sync.Mutex
	active map[uint64]context.CancelCauseFunc
	total  uint64
	closed bool
}

// close cancels every active query with the given cause.
func (ss *session) close(cause error) {
	ss.mu.Lock()
	ss.closed = true
	cancels := make([]context.CancelCauseFunc, 0, len(ss.active))
	for _, c := range ss.active {
		cancels = append(cancels, c)
	}
	ss.mu.Unlock()
	for _, c := range cancels {
		c(cause)
	}
}

// Server executes SQL statements against a shared catalog for many
// concurrent clients. Create with New, expose via Handler, stop with
// Shutdown.
type Server struct {
	cat *Catalog
	cfg Config
	met *metrics
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc
	draining   atomic.Bool
	// drainCh is closed the moment Shutdown begins. Bounded queries keep
	// running through the drain window, but standing subscriptions have no
	// natural end — they select on this channel and wind down immediately so
	// a drain never waits its full timeout on a subscriber.
	drainCh chan struct{}
	// drainMu orders beginQuery against Shutdown: queries register with the
	// WaitGroup under the read lock, Shutdown flips draining under the write
	// lock, so no query can slip in after the drain barrier is up.
	drainMu sync.RWMutex
	queries sync.WaitGroup

	sem    chan struct{}
	queued atomic.Int64
	qid    atomic.Uint64
	// subs gauges live subscription streams for /metrics.
	subs atomic.Int64

	smu      sync.Mutex
	sessions map[string]*session
	sid      atomic.Uint64

	// plans is the bounded plan cache; nil when disabled by config.
	plans *planCache
	// shared is the catalog-owned shared-SteM manager; nil when disabled.
	shared *sharedStems
	// prepared is the named-statement registry filled by PREPARE; EXECUTE
	// resolves names here before hitting the plan cache.
	pmu      sync.Mutex
	prepared map[string]*preparedStmt

	// completed is the finished-query ring behind GET /queries; nil when
	// disabled by config.
	completed *completedRing
}

// preparedStmt is one PREPARE registration: the parsed SELECT plus its
// canonical text, which keys the plan cache.
type preparedStmt struct {
	name    string
	stmt    *sql.Stmt
	canon   string
	created time.Time
}

// New builds a server over the catalog.
func New(cat *Catalog, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancelBase := context.WithCancelCause(context.Background())
	s := &Server{
		cat:        cat,
		cfg:        cfg,
		met:        newMetrics(),
		baseCtx:    baseCtx,
		cancelBase: cancelBase,
		drainCh:    make(chan struct{}),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		sessions:   make(map[string]*session),
		prepared:   make(map[string]*preparedStmt),
	}
	if cfg.PlanCacheSize > 0 {
		s.plans = newPlanCache(cfg.PlanCacheSize)
	}
	if cfg.SharedStems {
		s.shared = newSharedStems(cfg.SharedStemBytes)
	}
	if cfg.CompletedCap > 0 {
		s.completed = newCompletedRing(cfg.CompletedCap)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("GET /plans", s.handlePlans)
	mux.HandleFunc("POST /session", s.handleSessionCreate)
	mux.HandleFunc("GET /sessions", s.handleSessionList)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionDelete)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler serving the query API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new queries are rejected immediately,
// in-flight queries get up to drain to finish, and whatever remains is
// canceled (the cancellation reaches the eddy, which stops routing and
// unwinds its goroutines). Shutdown returns once every query has unwound.
// The HTTP listener is the caller's to close (http.Server.Shutdown waits
// for the same handlers this waits for).
func (s *Server) Shutdown(drain time.Duration) {
	s.drainMu.Lock()
	if !s.draining.Swap(true) {
		close(s.drainCh)
	}
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.queries.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		s.cancelBase(fmt.Errorf("server shutting down (drain %v elapsed)", drain))
		<-done
	}
	s.cancelBase(errDraining) // no-op if already canceled
	s.smu.Lock()
	for id, ss := range s.sessions {
		delete(s.sessions, id)
		ss.close(errDraining)
	}
	s.smu.Unlock()
}

// admit acquires an execution slot, waiting in the bounded queue if the
// server is saturated. It fails fast with errBusy when the queue is full.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if int(s.queued.Add(1)) > s.cfg.QueueDepth {
		s.queued.Add(-1)
		return errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *Server) release() { <-s.sem }

// sessionLocked returns the named session, creating it on first use; the
// caller holds smu.
func (s *Server) sessionLocked(id string) *session {
	ss, ok := s.sessions[id]
	if !ok {
		ss = &session{id: id, created: time.Now(), active: make(map[uint64]context.CancelCauseFunc)}
		s.sessions[id] = ss
	}
	return ss
}

// sessionFor returns the named session, creating it on first use so
// clients can adopt session IDs without a prior POST /session. explicit
// marks POST /session creations, which persist until DELETE.
func (s *Server) sessionFor(id string, explicit bool) *session {
	s.smu.Lock()
	defer s.smu.Unlock()
	ss := s.sessionLocked(id)
	if explicit {
		ss.explicit = true
	}
	return ss
}

// attachQuery registers a running query's cancel under the named session
// (created on first use); it returns nil if the session was concurrently
// closed. Attach and detach both serialize under smu, so a reap can never
// race an attach into an orphaned session.
func (s *Server) attachQuery(id string, qid uint64, cancel context.CancelCauseFunc) *session {
	s.smu.Lock()
	defer s.smu.Unlock()
	ss := s.sessionLocked(id)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil
	}
	ss.active[qid] = cancel
	ss.total++
	return ss
}

// detachQuery removes a finished query from its session and reaps the
// session when it was auto-created and is now idle.
func (s *Server) detachQuery(ss *session, qid uint64) {
	s.smu.Lock()
	defer s.smu.Unlock()
	ss.mu.Lock()
	delete(ss.active, qid)
	idle := len(ss.active) == 0
	ss.mu.Unlock()
	if idle && !ss.explicit && s.sessions[ss.id] == ss {
		delete(s.sessions, ss.id)
	}
}

func (s *Server) sessionCount() int {
	s.smu.Lock()
	defer s.smu.Unlock()
	return len(s.sessions)
}

func (s *Server) gauges() gauges {
	g := gauges{
		version:     s.cfg.Version,
		inflight:    int64(len(s.sem)),
		queued:      s.queued.Load(),
		sessions:    s.sessionCount(),
		tables:      s.cat.Len(),
		prepared:    s.preparedCount(),
		subscribers: s.subs.Load(),
		draining:    s.draining.Load(),
	}
	g.dictRecycled, g.dictNew = stem.DictAcquires()
	g.materialized = flow.MaterializedRows()
	g.inlineRounds, g.goroutineRounds = eddy.Rounds()
	if s.plans != nil {
		g.planEntries = s.plans.size()
		g.planHits, g.planMisses, g.planInvalidations, g.planEvictions = s.plans.counters()
	}
	if s.shared != nil {
		g.sharedBuilds, g.sharedAttached, g.sharedDetached, g.sharedEvictions = s.shared.counts()
		g.sharedExtends = s.shared.extends.Load()
		g.sharedResident = s.shared.bytes()
		g.sharedEntries = s.shared.entryCount()
	}
	return g
}

// QueryRequest is the POST /query body. Its fields are what one tenant may
// vary for its own query; the seed is Config's.
// Unknown fields are ignored.
type QueryRequest struct {
	// SQL is the statement: a SELECT, a REGISTER TABLE, a PREPARE, or an
	// EXECUTE.
	SQL string `json:"sql"`
	// Session optionally groups this query under a session ID for
	// collective cancellation; unknown IDs are created on first use.
	Session string `json:"session,omitempty"`
	// DeadlineMS bounds the query's wall time in milliseconds; 0 takes the
	// server default, and values above the server maximum are capped. A
	// subscription has no deadline unless it names one, and one that does not
	// fit a time.Duration (about 292 years) is refused.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Policy overrides the server's default routing policy; an unknown name
	// is refused.
	Policy string `json:"policy,omitempty"`
	// Explain streams the query normally, then appends one NDJSON trace
	// record after the done trailer: per-module visits/outputs/selectivity
	// and service time, plus the routing policy's learned state — the
	// EXPLAIN ANALYZE of a planless engine.
	Explain bool `json:"explain,omitempty"`
	// Subscribe turns a SELECT into a standing query: after the results over
	// the tables' current rows and a {"snapshot":true,...} marker, the
	// response stays open and every INSERT into a FROM table runs a delta
	// round whose new join results stream as further rows. The subscription
	// holds its execution slot for its whole life and ends when the client
	// disconnects, a REGISTER replaces a subscribed table, the server
	// drains, or an explicit deadline fires; the final line reports the
	// reason. Subscriptions reject ORDER BY/LIMIT (they never complete, so
	// there is nothing to arrange), Explain, and tables with index access
	// methods (index lookups would answer from a frozen copy of the table).
	Subscribe bool `json:"subscribe,omitempty"`
	// Window bounds standing-query SteM state per FROM table (keyed by the
	// name the query uses — the alias when one is declared): each table's
	// SteM keeps only the N most recent rows, older ones are evicted, and
	// delta results reflect the window contents at each insert's arrival —
	// joins against evicted rows are intentionally not produced. Only valid
	// with Subscribe: a bounded query's results would silently depend on
	// scan interleaving.
	Window map[string]int `json:"window,omitempty"`
}

func writeJSONError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxBody is the largest request body POST /query and POST /insert read.
const maxBody = 1 << 20

// bodyError answers a body that could not be read or decoded: 413 when it is
// longer than maxBody, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	code, err := http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	if errors.As(err, new(*http.MaxBytesError)) {
		code, err = http.StatusRequestEntityTooLarge, errors.New("request body exceeds the 1 MiB limit")
	}
	writeJSONError(w, code, err)
}

// handleHealthz is liveness: it answers 200 as long as the process serves
// HTTP, draining or not, so orchestrators don't kill a pod that is cleanly
// finishing its queries. Routability is /readyz's question.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.gauges()
	status := "ok"
	if g.draining {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"tables":   s.cat.Tables(),
		"inflight": g.inflight,
		"queued":   g.queued,
		"sessions": g.sessions,
	})
}

// handleReadyz is readiness: 503 with {"draining": true} the moment
// Shutdown begins, so load balancers stop routing before the drain
// completes and in-flight queries finish against a quiet server.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "draining": true})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"ready": true, "draining": false})
}

// handleQueries serves the completed-queries ring, newest first; min_ms
// filters to queries whose execution time met the threshold.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if s.completed == nil {
		writeJSONError(w, http.StatusNotFound, errors.New("completed-queries ring disabled (CompletedCap < 0)"))
		return
	}
	var minMS float64
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0) { // !(ms >= 0) also refuses NaN
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		minMS = ms
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"queries": s.completed.list(minMS)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.gauges())
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"tables": s.cat.Tables()})
}

// addPrepared registers a named statement; duplicate names are an error
// (re-preparing under a new name is cheap, silently replacing a plan a
// concurrent client is executing by name is a footgun).
func (s *Server) addPrepared(p *preparedStmt) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if _, ok := s.prepared[p.name]; ok {
		return fmt.Errorf("statement %q already prepared", p.name)
	}
	s.prepared[p.name] = p
	return nil
}

// lookupPrepared resolves an EXECUTE name.
func (s *Server) lookupPrepared(name string) (*preparedStmt, bool) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	p, ok := s.prepared[name]
	return p, ok
}

func (s *Server) preparedCount() int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return len(s.prepared)
}

// handlePlans lists the named prepared statements and the plan cache's
// entries in most-recently-used order.
func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	type prepInfo struct {
		Name    string    `json:"name"`
		SQL     string    `json:"sql"`
		Created time.Time `json:"created"`
	}
	s.pmu.Lock()
	preps := make([]prepInfo, 0, len(s.prepared))
	for _, p := range s.prepared {
		preps = append(preps, prepInfo{Name: p.name, SQL: p.canon, Created: p.created})
	}
	s.pmu.Unlock()
	sort.Slice(preps, func(i, j int) bool { return preps[i].Name < preps[j].Name })
	plans := []planInfo{}
	if s.plans != nil {
		plans = s.plans.entries()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"prepared": preps, "plans": plans})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	id := fmt.Sprintf("s%d", s.sid.Add(1))
	s.sessionFor(id, true)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"id": id})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.smu.Lock()
	type sessInfo struct {
		ID      string    `json:"id"`
		Active  int       `json:"active_queries"`
		Total   uint64    `json:"queries_total"`
		Created time.Time `json:"created"`
	}
	out := make([]sessInfo, 0, len(s.sessions))
	for _, ss := range s.sessions {
		ss.mu.Lock()
		out = append(out, sessInfo{ID: ss.id, Active: len(ss.active), Total: ss.total, Created: ss.created})
		ss.mu.Unlock()
	}
	s.smu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sessions": out})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.smu.Lock()
	ss, ok := s.sessions[id]
	delete(s.sessions, id)
	s.smu.Unlock()
	if !ok {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	ss.close(fmt.Errorf("session %q closed", id))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"closed": id})
}
