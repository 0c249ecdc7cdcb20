// metrics.go aggregates the serving layer's counters and renders them in
// the Prometheus text exposition format. The engine-level counters (routing
// steps, SteM builds, index probes) are the same per-module statistics the
// trace/explain layer reports per query, folded here into process-lifetime
// totals. Everything here is O(1) state: a long-lived server must not
// accumulate per-query history (time-series curves are the scrape
// consumer's job, the same way the paper's cumulative-result figures are
// plotted from sampled counters).
package server

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// queryStatus classifies a finished query for the metrics by-status counter.
type queryStatus string

const (
	statusOK       queryStatus = "ok"
	statusError    queryStatus = "error"
	statusCanceled queryStatus = "canceled"
	statusRejected queryStatus = "rejected"
)

// metrics is the server's counter set. All methods are safe for concurrent
// use; gauges owned by the admission path are read through the Server.
type metrics struct {
	start time.Time

	mu           sync.Mutex
	queries      map[queryStatus]uint64
	registers    uint64
	inserts      uint64
	insertedRows uint64
	rowsStreamed uint64
	routingSteps uint64
	stemBuilds   uint64
	indexProbes  uint64
	// The latency histograms replace the old sum-only
	// stemsd_query_seconds_total: still O(1) state, but a scraper can now
	// read the distribution (p50/p99) instead of just the mean. The
	// histogram's _sum carries the old total.
	durHist   *histogram // query execution seconds
	queueHist *histogram // admission queue-wait seconds
	rowsHist  *histogram // result rows per query
}

func newMetrics() *metrics {
	return &metrics{
		start:   time.Now(),
		queries: make(map[queryStatus]uint64),
		// 1ms·2ⁿ spans sub-millisecond cache hits to two-minute scans.
		durHist: newHistogram(expBuckets(0.001, 2, 18)),
		// 100µs·2ⁿ: queue waits start near zero and cap at the deadline.
		queueHist: newHistogram(expBuckets(0.0001, 2, 16)),
		// 1·4ⁿ rows: result cardinalities span single rows to millions.
		rowsHist: newHistogram(expBuckets(1, 4, 12)),
	}
}

// finishQuery folds one completed query into the totals.
func (m *metrics) finishQuery(st queryStatus, rows int, elapsed, queueWait time.Duration, routed, builds, probes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries[st]++
	m.rowsStreamed += uint64(rows)
	m.routingSteps += routed
	m.stemBuilds += builds
	m.indexProbes += probes
	m.durHist.observe(elapsed.Seconds())
	m.queueHist.observe(queueWait.Seconds())
	m.rowsHist.observe(float64(rows))
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.queries[statusRejected]++
	m.mu.Unlock()
}

func (m *metrics) register() {
	m.mu.Lock()
	m.registers++
	m.mu.Unlock()
}

// insert folds one INSERT (statement or POST /insert call) into the totals.
func (m *metrics) insert(rows int) {
	m.mu.Lock()
	m.inserts++
	m.insertedRows += uint64(rows)
	m.mu.Unlock()
}

// gauges are point-in-time values the Server owns; passed in at render
// time. The plan-cache counters ride along here too — they live in the
// cache's own atomics, not under this struct's mutex.
type gauges struct {
	inflight    int64
	queued      int64
	sessions    int
	tables      int
	prepared    int
	subscribers int64
	draining    bool

	version string

	planEntries       int
	planHits          uint64
	planMisses        uint64
	planInvalidations uint64
	planEvictions     uint64

	sharedBuilds    uint64
	sharedExtends   uint64
	sharedAttached  uint64
	sharedDetached  uint64
	sharedEvictions uint64
	sharedResident  int64
	sharedEntries   int

	dictRecycled uint64
	dictNew      uint64
	materialized uint64

	inlineRounds    uint64
	goroutineRounds uint64
}

// write renders the counters in the Prometheus text exposition format.
func (m *metrics) write(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("stemsd_queries_total", "Finished queries by status.")
	for _, st := range []queryStatus{statusOK, statusError, statusCanceled, statusRejected} {
		fmt.Fprintf(w, "stemsd_queries_total{status=%q} %d\n", st, m.queries[st])
	}
	counter("stemsd_registers_total", "REGISTER TABLE statements executed.")
	fmt.Fprintf(w, "stemsd_registers_total %d\n", m.registers)
	counter("stemsd_inserts_total", "INSERT statements and POST /insert calls executed.")
	fmt.Fprintf(w, "stemsd_inserts_total %d\n", m.inserts)
	counter("stemsd_inserted_rows_total", "Rows appended to catalog tables by inserts.")
	fmt.Fprintf(w, "stemsd_inserted_rows_total %d\n", m.insertedRows)
	counter("stemsd_rows_streamed_total", "Result rows streamed to clients.")
	fmt.Fprintf(w, "stemsd_rows_streamed_total %d\n", m.rowsStreamed)
	counter("stemsd_routing_steps_total", "Eddy routing decisions across all queries.")
	fmt.Fprintf(w, "stemsd_routing_steps_total %d\n", m.routingSteps)
	counter("stemsd_stem_builds_total", "Rows materialized into SteMs across all queries.")
	fmt.Fprintf(w, "stemsd_stem_builds_total %d\n", m.stemBuilds)
	counter("stemsd_stem_dict_acquires_total", "Private SteM dictionaries acquired, by where their storage came from: recycled from a finished query, or newly allocated.")
	fmt.Fprintf(w, "stemsd_stem_dict_acquires_total{source=\"recycled\"} %d\n", g.dictRecycled)
	fmt.Fprintf(w, "stemsd_stem_dict_acquires_total{source=\"new\"} %d\n", g.dictNew)
	counter("stemsd_materialized_rows_total", "Rows converted from column vectors back into tuples, process-wide: what fell off the columnar path (row-semantic SteM configurations, index AMs, buffered ORDER BY/LIMIT results). A query that stays on columns from scan to socket leaves it unmoved.")
	fmt.Fprintf(w, "stemsd_materialized_rows_total %d\n", g.materialized)
	counter("stemsd_eddy_runs_total", "Engine rounds, delta rounds included, process-wide, by driver: inline on the requesting goroutine (modules that declare no time, a small round), or on module worker goroutines.")
	fmt.Fprintf(w, "stemsd_eddy_runs_total{driver=\"inline\"} %d\n", g.inlineRounds)
	fmt.Fprintf(w, "stemsd_eddy_runs_total{driver=\"goroutines\"} %d\n", g.goroutineRounds)
	counter("stemsd_index_probes_total", "Remote index lookups across all queries.")
	fmt.Fprintf(w, "stemsd_index_probes_total %d\n", m.indexProbes)
	counter("stemsd_plan_cache_hits_total", "Statements served from the plan cache without re-binding.")
	fmt.Fprintf(w, "stemsd_plan_cache_hits_total %d\n", g.planHits)
	counter("stemsd_plan_cache_misses_total", "Statements that bound and built a fresh plan.")
	fmt.Fprintf(w, "stemsd_plan_cache_misses_total %d\n", g.planMisses)
	counter("stemsd_plan_cache_invalidations_total", "Cached plans dropped on catalog-version mismatch.")
	fmt.Fprintf(w, "stemsd_plan_cache_invalidations_total %d\n", g.planInvalidations)
	counter("stemsd_plan_cache_evictions_total", "Cached plans dropped by LRU capacity pressure.")
	fmt.Fprintf(w, "stemsd_plan_cache_evictions_total %d\n", g.planEvictions)
	counter("stemsd_shared_stem_builds_total", "Shared SteM states built by the catalog (first use, or rebuild after REGISTER or an INSERT it could not absorb).")
	fmt.Fprintf(w, "stemsd_shared_stem_builds_total %d\n", g.sharedBuilds)
	counter("stemsd_shared_stem_extends_total", "Shared SteM states extended in place with the rows an INSERT appended.")
	fmt.Fprintf(w, "stemsd_shared_stem_extends_total %d\n", g.sharedExtends)
	counter("stemsd_shared_stem_attached_total", "Probe-only attachments of queries to shared SteM states.")
	fmt.Fprintf(w, "stemsd_shared_stem_attached_total %d\n", g.sharedAttached)
	counter("stemsd_shared_stem_detaches_total", "Attachments released by finished queries.")
	fmt.Fprintf(w, "stemsd_shared_stem_detaches_total %d\n", g.sharedDetached)
	counter("stemsd_shared_stem_evictions_total", "Shared SteM states evicted by capacity pressure.")
	fmt.Fprintf(w, "stemsd_shared_stem_evictions_total %d\n", g.sharedEvictions)

	m.durHist.write(w, "stemsd_query_duration_seconds", "Query execution time (bind through last row), by finished query.")
	m.queueHist.write(w, "stemsd_query_queue_seconds", "Time spent waiting for an admission slot, by finished query.")
	m.rowsHist.write(w, "stemsd_query_rows", "Result rows streamed, by finished query.")

	gauge("stemsd_inflight_queries", "Queries currently executing.")
	fmt.Fprintf(w, "stemsd_inflight_queries %d\n", g.inflight)
	gauge("stemsd_queued_queries", "Queries waiting for an execution slot.")
	fmt.Fprintf(w, "stemsd_queued_queries %d\n", g.queued)
	gauge("stemsd_sessions_active", "Live sessions.")
	fmt.Fprintf(w, "stemsd_sessions_active %d\n", g.sessions)
	gauge("stemsd_subscribers_active", "Standing queries currently holding a subscription stream.")
	fmt.Fprintf(w, "stemsd_subscribers_active %d\n", g.subscribers)
	gauge("stemsd_catalog_tables", "Tables registered in the shared catalog.")
	fmt.Fprintf(w, "stemsd_catalog_tables %d\n", g.tables)
	gauge("stemsd_plan_cache_entries", "Live plan cache entries.")
	fmt.Fprintf(w, "stemsd_plan_cache_entries %d\n", g.planEntries)
	gauge("stemsd_prepared_statements", "Named statements registered with PREPARE.")
	fmt.Fprintf(w, "stemsd_prepared_statements %d\n", g.prepared)
	gauge("stemsd_shared_stem_entries", "Live catalog-owned shared SteM states.")
	fmt.Fprintf(w, "stemsd_shared_stem_entries %d\n", g.sharedEntries)
	gauge("stemsd_shared_stem_resident_bytes", "Resident row footprint of catalog-owned shared SteM states.")
	fmt.Fprintf(w, "stemsd_shared_stem_resident_bytes %d\n", g.sharedResident)
	draining := 0
	if g.draining {
		draining = 1
	}
	gauge("stemsd_draining", "1 while the server is draining for shutdown.")
	fmt.Fprintf(w, "stemsd_draining %d\n", draining)
	gauge("stemsd_uptime_seconds", "Seconds since the server started.")
	fmt.Fprintf(w, "stemsd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	gauge("stemsd_build_info", "Build metadata; the value is always 1.")
	fmt.Fprintf(w, "stemsd_build_info{version=%q,go=%q} 1\n", g.version, runtime.Version())
}
