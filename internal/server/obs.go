// obs.go is the per-query observability layer: the completed-queries ring
// (the system:completed_requests analog — a fixed-capacity record of
// finished queries with their timings and per-module stats, served by
// GET /queries) and the structured-log helpers. Everything here is bounded:
// the ring overwrites its oldest record, so a long-lived server holds at
// most CompletedCap records no matter the query rate.
package server

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/trace"
)

// queryRecord is one finished query as it appears in GET /queries and in
// the "query finished" structured log.
type queryRecord struct {
	ID      uint64 `json:"id"`
	Session string `json:"session,omitempty"`
	SQL     string `json:"sql"`
	Policy  string `json:"policy"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Rows    int    `json:"rows"`
	// QueueMS is time spent waiting for an admission slot; ElapsedMS is
	// execution time (bind through last row), excluding the queue wait.
	QueueMS      float64   `json:"queue_ms"`
	ElapsedMS    float64   `json:"elapsed_ms"`
	RoutingSteps uint64    `json:"routing_steps"`
	StemBuilds   uint64    `json:"stem_builds"`
	IndexProbes  uint64    `json:"index_probes"`
	PlanCacheHit bool      `json:"plan_cache_hit"`
	SharedStems  bool      `json:"shared_stems,omitempty"`
	Start        time.Time `json:"start"`
	// Modules carries the trace collector's per-module aggregates — the
	// observed routing that stands in for a plan.
	Modules []trace.ModuleRecord `json:"modules,omitempty"`
}

// completedRing holds the last cap finished queries, newest overwriting
// oldest.
type completedRing struct {
	mu   sync.Mutex
	recs []queryRecord
	next int
	full bool
}

func newCompletedRing(capacity int) *completedRing {
	return &completedRing{recs: make([]queryRecord, capacity)}
}

func (cr *completedRing) add(rec queryRecord) {
	cr.mu.Lock()
	cr.recs[cr.next] = rec
	cr.next++
	if cr.next == len(cr.recs) {
		cr.next, cr.full = 0, true
	}
	cr.mu.Unlock()
}

// list returns records with at least minMS milliseconds of execution time,
// newest first.
func (cr *completedRing) list(minMS float64) []queryRecord {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	n := cr.next
	if cr.full {
		n = len(cr.recs)
	}
	out := make([]queryRecord, 0, n)
	// Walk backwards from the most recent slot.
	for i := 0; i < n; i++ {
		idx := cr.next - 1 - i
		if idx < 0 {
			idx += len(cr.recs)
		}
		if r := cr.recs[idx]; r.ElapsedMS >= minMS {
			out = append(out, r)
		}
	}
	return out
}

// logFinished emits the finished/slow-query structured logs. lg is non-nil.
// The attributes are built on the stack, and not at all for a level the
// logger drops.
func logFinished(lg *slog.Logger, rec *queryRecord, slow time.Duration) {
	ctx := context.Background()
	if lg.Enabled(ctx, slog.LevelInfo) {
		var buf [8]slog.Attr
		attrs := append(buf[:0],
			slog.Uint64("query_id", rec.ID),
			slog.String("status", rec.Status),
			slog.Int("rows", rec.Rows),
			slog.Float64("queue_ms", rec.QueueMS),
			slog.Float64("elapsed_ms", rec.ElapsedMS),
			slog.String("sql", rec.SQL))
		if rec.Session != "" {
			attrs = append(attrs, slog.String("session", rec.Session))
		}
		if rec.Error != "" {
			attrs = append(attrs, slog.String("error", rec.Error))
		}
		lg.LogAttrs(ctx, slog.LevelInfo, "query finished", attrs...)
	}
	if slow > 0 && rec.ElapsedMS >= float64(slow)/float64(time.Millisecond) {
		lg.LogAttrs(ctx, slog.LevelWarn, "slow query",
			slog.Uint64("query_id", rec.ID),
			slog.Float64("elapsed_ms", rec.ElapsedMS),
			slog.Float64("threshold_ms", float64(slow)/float64(time.Millisecond)),
			slog.String("sql", rec.SQL))
	}
}
