// Command stemsd is the long-lived SteM query server: it keeps a shared
// catalog of CSV-backed tables (loaded at startup via -t and at run time
// via REGISTER TABLE statements) and serves SQL over HTTP/JSON, streaming
// result rows as NDJSON while the eddy routes.
//
// Start it and query it:
//
//	stemsd -addr :8080 -t people=people.csv -t orders=orders.csv
//
//	curl -s localhost:8080/query -d '{"sql":
//	  "SELECT people.name, orders.total FROM people, orders
//	   WHERE people.id = orders.person"}'
//
//	curl -s localhost:8080/query \
//	  -d '{"sql":"REGISTER TABLE items FROM '\''items.csv'\'' INDEX id LATENCY 50ms"}'
//
// Hot queries prepare once and execute many times against the plan cache
// (pooled router/engine shells, invalidated when REGISTER changes the
// catalog; ad-hoc SELECTs auto-prepare under their canonical text):
//
//	curl -s localhost:8080/query -d '{"sql":
//	  "PREPARE hot AS SELECT people.name, orders.total
//	   FROM people, orders WHERE people.id = orders.person"}'
//
//	curl -s localhost:8080/query -d '{"sql":"EXECUTE hot"}'
//
// GET /plans lists prepared statements and cached plans; -plan-cache sizes
// the cache.
//
// Live ingestion and standing queries: INSERT INTO t VALUES (...) —
// or POST /insert with {"table":..., "rows":[[...],...]} — appends rows to
// a registered table (cached plans invalidate, shared SteMs rebuild
// lazily). POST /query with "subscribe": true turns a SELECT into a
// standing query: the response streams the current result set, a
// {"snapshot":true} marker, and then only the delta rows each insert
// produces, until the client disconnects, the table is replaced by a
// REGISTER, or the server drains.
//
// Admission control bounds concurrent queries (-max-inflight) and the wait
// queue (-queue); per-query deadlines default to -deadline and are capped
// at -max-deadline.
//
// Observability: /healthz reports liveness (always 200 while the process
// serves), /readyz readiness (503 with {"draining":true} once shutdown
// begins), /metrics exposes Prometheus-style counters and latency
// histograms, and GET /queries serves the completed-queries ring
// (?min_ms=N filters to slow queries; -completed-queries sizes it,
// -slow-query-ms also logs them). POST /query with "explain": true streams
// results then a final NDJSON trace record with per-module stats and the
// routing policy's learned state. Structured logs go to stderr (-log-level,
// -log-json); -pprof additionally serves the Go profiling endpoints under
// /debug/pprof/ (off by default), and -pprof-labels tags each query's
// goroutines with its query ID so CPU profiles attribute to queries.
// SIGINT/SIGTERM drains: in-flight queries get
// -drain to finish, stragglers are canceled (cancellation stops the eddy's
// routing, it does not abandon goroutines), and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/eddy"
	"repro/internal/server"
)

type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

// version feeds the stemsd_build_info metric: the module version when built
// with version info (go install m@v), else the VCS revision, else "dev".
var version = func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	return "dev"
}()

// buildLogger constructs the server's structured logger; level "off"
// returns nil, which disables per-query logging entirely.
func buildLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "off", "none":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error, or off)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

func main() {
	var tables, indexes repeatable
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var(&tables, "t", "table as name=path.csv (repeatable)")
	flag.Var(&indexes, "index", "index access method as table:column:latency (repeatable)")
	dataDir := flag.String("data-dir", ".", "confine REGISTER TABLE statement paths to this directory; -t flag paths are exempt (operator input). Empty disables confinement — do not expose such a server to untrusted clients")
	policyName := flag.String("policy", "benefitcost", "default routing policy: fixed, lottery, benefitcost")
	seed := flag.Int64("seed", 1, "seed for randomized policies")
	batch := flag.Int("batch", eddy.DefaultBatchSize, "eddy batch size of every query's concurrent engine; 1 is tuple-at-a-time")
	maxInflight := flag.Int("max-inflight", 8, "maximum concurrently executing queries")
	queueDepth := flag.Int("queue", 16, "admission queue depth beyond -max-inflight; 0 rejects immediately at capacity")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-query deadline")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight queries")
	planCache := flag.Int("plan-cache", 0, "plan cache capacity in entries: PREPAREd and ad-hoc SELECT plans are cached with pooled engine shells, keyed by canonical text + knobs and invalidated by REGISTER (0 uses the default of 128; negative disables caching)")
	flag.String("spill-dir", "", "ignored: accepted only because the frozen benchmark harness passes it")
	sharedStems := flag.Bool("shared-stems", false, "share SteM state across queries: the first query joining through a registered table builds its SteM once, concurrent and later queries attach probe-only handles; REGISTER invalidates lazily")
	sharedStemBytes := flag.Int64("shared-stem-bytes", 0, "cap on the total footprint of shared SteM state; least-recently-attached idle states are evicted past it (0 = unlimited)")
	pprofOn := flag.Bool("pprof", false, "expose Go pprof profiling endpoints under /debug/pprof/ (opt-in; profiles reveal query shapes, so leave off on untrusted networks)")
	pprofLabels := flag.Bool("pprof-labels", false, "label each query's goroutines with its query ID so CPU profiles attribute samples to queries (costs a small allocation per query)")
	slowQueryMS := flag.Int64("slow-query-ms", 0, "log queries whose execution time reaches this many milliseconds at warn level (0 disables)")
	completedCap := flag.Int("completed-queries", 0, "capacity of the completed-queries ring served by GET /queries (0 uses the default of 256; negative disables)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error, or off")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stemsd: %v\n", err)
		os.Exit(1)
	}

	cat := server.NewCatalog(0, *dataDir)
	if err := cat.LoadFlagSpecs(tables, indexes); err != nil {
		fmt.Fprintf(os.Stderr, "stemsd: %v\n", err)
		os.Exit(1)
	}

	srv := server.New(cat, server.Config{
		MaxInFlight:     *maxInflight,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Policy:          *policyName,
		Seed:            *seed,
		BatchSize:       *batch,
		PlanCacheSize:   *planCache,

		SharedStems:     *sharedStems,
		SharedStemBytes: *sharedStemBytes,

		Logger:       logger,
		PprofLabels:  *pprofLabels,
		SlowQuery:    time.Duration(*slowQueryMS) * time.Millisecond,
		CompletedCap: *completedCap,
		Version:      version,
	})

	handler := srv.Handler()
	if *pprofOn {
		// Explicit registrations instead of the net/http/pprof side-effect
		// import: the profiling surface exists only behind the flag, never
		// on the default mux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("stemsd: pprof endpoints enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("stemsd: serving on %s with %d tables %v", *addr, cat.Len(), cat.Tables())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("stemsd: %v — draining (up to %v)", sig, *drain)
	case err := <-errCh:
		log.Fatalf("stemsd: %v", err)
	}

	// Drain: the server rejects new queries, lets running ones finish
	// within the window, then cancels the rest; the HTTP shutdown waits for
	// the same handlers, so both complete together.
	done := make(chan struct{})
	go func() {
		srv.Shutdown(*drain)
		close(done)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("stemsd: http shutdown: %v", err)
	}
	<-done
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("stemsd: %v", err)
	}
	log.Print("stemsd: drained, bye")
}
