package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// BenchmarkServerConcurrentSessions measures end-to-end serving throughput:
// many sessions each POSTing the 3-way join over HTTP and draining the
// NDJSON stream. One op is one complete query round trip.
func BenchmarkServerConcurrentSessions(b *testing.B) {
	cat := memCatalog(b)
	srv := New(cat, Config{MaxInFlight: runtime.GOMAXPROCS(0) * 2, QueueDepth: 1024})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256
	defer client.CloseIdleConnections()

	var sid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		session := fmt.Sprintf("bench-%d", sid.Add(1))
		for pb.Next() {
			res := postQuery(b, client, ts.URL, map[string]any{
				"sql":     threeWayJoin,
				"session": session,
			})
			if res.status != http.StatusOK || len(res.rows) != 5 {
				b.Errorf("status=%d rows=%d err=%q", res.status, len(res.rows), res.errLine)
				return
			}
		}
	})
	b.StopTimer()
	srv.Shutdown(time.Second)
}

// BenchmarkServerSharedStems measures what catalog-owned shared SteMs buy
// under concurrency: M sessions all running the same selective join over a
// 20k-row table. In private mode every query rebuilds the big table's SteM
// from scratch; in shared mode the first query builds it once and everyone
// else attaches a probe-only handle, so per-op cost drops to the driver
// scan plus probes. The sub-benchmark pair shares one workload so the two
// numbers are directly comparable.
func BenchmarkServerSharedStems(b *testing.B) {
	const bigRows, smallRows = 20000, 50
	mkCatalog := func(b *testing.B) *Catalog {
		cat := NewCatalog(0, "")
		var scan source.ScanSpec
		bigT := schema.MustTable("big", schema.IntCol("key"), schema.IntCol("a"))
		big := make([]tuple.Row, bigRows)
		for i := range big {
			big[i] = intRow(int64(i), int64(i%5000))
		}
		sc1 := scan
		cat.Put("big", sql.Source{Data: source.MustTable(bigT, big), Scan: &sc1})
		smallT := schema.MustTable("small", schema.IntCol("x"), schema.IntCol("y"))
		small := make([]tuple.Row, smallRows)
		for j := range small {
			small[j] = intRow(int64(j*100), int64(j))
		}
		sc2 := scan
		cat.Put("small", sql.Source{Data: source.MustTable(smallT, small), Scan: &sc2})
		return cat
	}
	// 50 driver tuples, each matching big.a == small.x; x ∈ {0,100,…,4900}
	// hits 50 of the 5000 distinct a-values, 4 big rows each → 200 results.
	const q = "SELECT small.y, big.key FROM big, small WHERE big.a = small.x"
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"private", false}, {"shared", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := New(mkCatalog(b), Config{
				MaxInFlight: runtime.GOMAXPROCS(0) * 2,
				QueueDepth:  1024,
				SharedStems: mode.shared,
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()
			client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256
			defer client.CloseIdleConnections()

			var sid atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				session := fmt.Sprintf("bench-%d", sid.Add(1))
				for pb.Next() {
					res := postQuery(b, client, ts.URL, map[string]any{
						"sql":     q,
						"session": session,
					})
					if res.status != http.StatusOK || len(res.rows) != 200 {
						b.Errorf("status=%d rows=%d err=%q", res.status, len(res.rows), res.errLine)
						return
					}
				}
			})
			b.StopTimer()
			if mode.shared {
				builds, attaches, _, _ := srv.shared.counts()
				if builds != 1 {
					b.Errorf("shared builds = %d, want exactly 1 across %d ops", builds, b.N)
				}
				if attaches != uint64(b.N) {
					b.Errorf("attachments = %d, want %d (one per op)", attaches, b.N)
				}
			}
			srv.Shutdown(time.Second)
		})
	}
}

// BenchmarkServerConcurrentSessionsPrepared is the prepared-path variant:
// the join is PREPAREd once and every op is an EXECUTE, so the hot path
// skips parsing the SELECT text, re-binding, and engine construction,
// running instead on pooled router+engine shells from the plan cache.
// The observability sub-benchmark turns everything on — structured logs (to
// a discard writer), pprof query labels, and per-request explain traces —
// so base vs observability shows what full instrumentation costs. (Numbers
// a PR may cite come from `go run ./bench`, BENCHMARK.json's harness, whose
// small_requests workload drives this same EXECUTE path through stemsd.)
func BenchmarkServerConcurrentSessionsPrepared(b *testing.B) {
	runPrepared := func(b *testing.B, cfg Config, explain bool) {
		cat := memCatalog(b)
		cfg.MaxInFlight = runtime.GOMAXPROCS(0) * 2
		cfg.QueueDepth = 1024
		srv := New(cat, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256
		defer client.CloseIdleConnections()

		if res := postQuery(b, client, ts.URL, map[string]any{"sql": "PREPARE hot AS " + threeWayJoin}); res.status != http.StatusOK {
			b.Fatalf("PREPARE: status=%d err=%q", res.status, res.errLine)
		}

		var sid atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			session := fmt.Sprintf("bench-%d", sid.Add(1))
			for pb.Next() {
				res := postQuery(b, client, ts.URL, map[string]any{
					"sql":     "EXECUTE hot",
					"session": session,
					"explain": explain,
				})
				if res.status != http.StatusOK || len(res.rows) != 5 {
					b.Errorf("status=%d rows=%d err=%q", res.status, len(res.rows), res.errLine)
					return
				}
				if explain && res.trace == nil {
					b.Error("explain run returned no trace line")
					return
				}
			}
		})
		b.StopTimer()
		srv.Shutdown(time.Second)
	}
	b.Run("base", func(b *testing.B) { runPrepared(b, Config{}, false) })
	b.Run("observability", func(b *testing.B) {
		runPrepared(b, Config{
			Logger:      slog.New(slog.NewJSONHandler(io.Discard, nil)),
			PprofLabels: true,
			SlowQuery:   time.Second,
		}, true)
	})
}
