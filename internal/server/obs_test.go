// obs_test.go covers the query-observability layer: explain traces over
// HTTP (including the pooled-shell no-bleed invariant), the
// completed-queries ring, and the structured per-query logs.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eddy"
	"repro/internal/policy"
	"repro/internal/sql"
	"repro/internal/trace"
)

// decodeTrace round-trips the generic trace line from postQuery into the
// typed wire form.
func decodeTrace(t *testing.T, raw map[string]any) trace.Record {
	t.Helper()
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("trace line does not decode as trace.Record: %v", err)
	}
	return rec
}

// TestExplainSimMatchesLocalCollector is the acceptance check for the
// server's explain path: POST /query {"explain": true} must describe the
// query the server ran. The second opinion is a local trace.Collector on the
// deterministic simulator over the same statement, policy, seed and catalog;
// the server's concurrent run must agree with it on everything routing order
// cannot change — the module set, the result count, and what every scan
// emitted.
func TestExplainSimMatchesLocalCollector(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{})

	res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "explain": true})
	if res.status != http.StatusOK || len(res.rows) != 5 {
		t.Fatalf("status=%d rows=%d err=%q", res.status, len(res.rows), res.errLine)
	}
	if res.trace == nil {
		t.Fatal("explain response carried no trace line")
	}
	got := decodeTrace(t, res.trace)

	// Local replica: same defaults (benefitcost, seed 1), same catalog
	// snapshot.
	st, err := sql.ParseStatement(threeWayJoin)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sql.Bind(st.(*sql.Stmt), cat.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ByName("benefitcost", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eddy.NewRouter(bound.Q, eddy.Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	sim := eddy.NewSim(r)
	coll := trace.NewCollector(r.Modules())
	coll.Attach(sim)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := coll.Record(pol)

	if got.Results != 5 || got.Results != want.Results || len(got.Policy) == 0 {
		t.Errorf("trace results=%d (local %d) policy entries=%d, want 5 and >0", got.Results, want.Results, len(got.Policy))
	}
	// Modules are listed busiest first, so compare them by name.
	local := make(map[string]trace.ModuleRecord, len(want.Modules))
	for _, m := range want.Modules {
		local[m.Name] = m
	}
	if len(got.Modules) != len(local) {
		t.Errorf("server explain lists %d modules, local collector %d", len(got.Modules), len(local))
	}
	for _, m := range got.Modules {
		lm, ok := local[m.Name]
		if !ok {
			t.Errorf("server explain names module %q, unknown to the local collector", m.Name)
			continue
		}
		if strings.HasPrefix(m.Name, "AM(") && m.Outputs != lm.Outputs {
			t.Errorf("%s emitted %d tuples on the server, %d locally", m.Name, m.Outputs, lm.Outputs)
		}
		// Busy time is service time measured on the engine clock. Every module
		// here is a single server, so its services are disjoint intervals: they
		// fit between its first and last completion plus one service — the
		// first, which cannot have begun before the clock's zero.
		if m.BusySeconds > m.LastBusy {
			t.Errorf("%s was busy %.6fs by the time %.6fs", m.Name, m.BusySeconds, m.LastBusy)
		}
		// And it is not the simulator's model: a scan is one service in both
		// engines, which the model prices at 2 µs — 2 ns of wall time at the
		// engine's scale, less than any real scan takes.
		if strings.HasPrefix(m.Name, "AM(") && m.BusySeconds <= lm.BusySeconds {
			t.Errorf("%s reports busy %.9fs, no more than the simulator's modeled %.9fs", m.Name, m.BusySeconds, lm.BusySeconds)
		}
	}
}

// TestExplainCachedConcurrentNoBleed runs the same concurrent-engine query
// three times through the plan cache with explain on. Pooled shells reuse
// one collector, so the invariant under test is that every execution
// reports exactly its own run: 5 results and 8 SteM builds each time, never
// a predecessor's accumulated stats.
func TestExplainCachedConcurrentNoBleed(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})

	for i := 0; i < 3; i++ {
		res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "explain": true})
		if res.status != http.StatusOK || len(res.rows) != 5 {
			t.Fatalf("run %d: status=%d rows=%d err=%q", i, res.status, len(res.rows), res.errLine)
		}
		if res.trace == nil {
			t.Fatalf("run %d: no trace line", i)
		}
		rec := decodeTrace(t, res.trace)
		// A bleed across pooled executions would show up as 10 or 15 results
		// on the later runs.
		if rec.Results != 5 {
			t.Errorf("run %d: trace results = %d, want 5 (pooled shell bleeding stats?)", i, rec.Results)
		}
		if res.trailer["stem_builds"] != float64(8) {
			t.Errorf("run %d: trailer stem_builds = %v, want 8", i, res.trailer["stem_builds"])
		}
		if len(rec.Modules) == 0 {
			t.Fatalf("run %d: trace has no modules", i)
		}
		for _, m := range rec.Modules {
			if m.Visits == 0 {
				t.Errorf("run %d: module %s has zero visits", i, m.Name)
			}
		}
		if len(rec.Policy) == 0 {
			t.Errorf("run %d: explain trace missing policy state", i)
		}
	}

	// The ring confirms the second and third executions were cache hits.
	recs := fetchQueries(t, client, ts.URL, "")
	if len(recs) != 3 {
		t.Fatalf("completed ring has %d records, want 3", len(recs))
	}
	if recs[0].PlanCacheHit != true || recs[1].PlanCacheHit != true || recs[2].PlanCacheHit != false {
		t.Errorf("plan_cache_hit newest-first = %v/%v/%v, want true/true/false",
			recs[0].PlanCacheHit, recs[1].PlanCacheHit, recs[2].PlanCacheHit)
	}
}

// fetchQueries GETs the completed-queries ring; query is a raw query string
// like "min_ms=5" or "".
func fetchQueries(t *testing.T, client *http.Client, url, query string) []queryRecord {
	t.Helper()
	u := url + "/queries"
	if query != "" {
		u += "?" + query
	}
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /queries = %d", resp.StatusCode)
	}
	var body struct {
		Queries []queryRecord `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Queries
}

// TestCompletedQueriesRing pins the GET /queries contract: records carry
// identity, outcome, and per-module stats; min_ms filters; the ring
// overwrites its oldest record at capacity.
func TestCompletedQueriesRing(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{CompletedCap: 2})

	// Three queries through a capacity-2 ring: the first record must be gone.
	for i := 0; i < 3; i++ {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); res.status != http.StatusOK {
			t.Fatalf("query %d: status=%d", i, res.status)
		}
	}
	recs := fetchQueries(t, client, ts.URL, "")
	if len(recs) != 2 {
		t.Fatalf("ring returned %d records, want 2 (capacity)", len(recs))
	}
	if recs[0].ID != 3 || recs[1].ID != 2 {
		t.Errorf("ring ids newest-first = %d,%d, want 3,2", recs[0].ID, recs[1].ID)
	}
	for _, r := range recs {
		if r.Status != "ok" || r.Rows != 5 || r.Policy != "benefitcost" {
			t.Errorf("record %+v: want status ok, 5 rows, benefitcost", r)
		}
		if r.SQL == "" || r.Start.IsZero() || r.ElapsedMS <= 0 {
			t.Errorf("record %d missing identity/timing: sql=%q start=%v elapsed=%v", r.ID, r.SQL, r.Start, r.ElapsedMS)
		}
		if len(r.Modules) == 0 {
			t.Errorf("record %d carries no module stats", r.ID)
		}
		for _, m := range r.Modules {
			if m.Visits == 0 {
				t.Errorf("record %d: module %s has zero visits", r.ID, m.Name)
			}
		}
	}

	// An impossible threshold filters everything out — also one too large
	// for a time.Duration, which must not wrap round to a negative one.
	for _, ms := range []string{"1e9", "1e300", "inf"} {
		if recs := fetchQueries(t, client, ts.URL, "min_ms="+ms); len(recs) != 0 {
			t.Errorf("min_ms=%s returned %d records, want 0", ms, len(recs))
		}
	}
	// A bad threshold is a 400, not a silent full listing.
	for _, ms := range []string{"soon", "NaN"} {
		resp, err := client.Get(ts.URL + "/queries?min_ms=" + ms)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("min_ms=%s = %d, want 400", ms, resp.StatusCode)
		}
	}

	// A failed query lands in the ring with its status and error.
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "SELECT zz.k FROM zz"}); res.status != http.StatusBadRequest {
		t.Fatalf("unknown table status = %d", res.status)
	}
	recs = fetchQueries(t, client, ts.URL, "")
	if recs[0].Status != "error" || recs[0].Error == "" {
		t.Errorf("failed query record = %+v, want status error with message", recs[0])
	}
}

// TestRingDisabled asserts CompletedCap < 0 turns the endpoint off.
func TestRingDisabled(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{CompletedCap: -1})
	postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
	resp, err := client.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /queries with ring disabled = %d, want 404", resp.StatusCode)
	}
}

// syncBuffer lets the test read log output written from handler goroutines
// without a data race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLogsAndSlowQuery runs one query with logging on and a
// threshold every query exceeds, then asserts the finished and slow-query
// records appear with the query's identity.
func TestStructuredLogsAndSlowQuery(t *testing.T) {
	var out syncBuffer
	lg := slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts, client := newTestServer(t, memCatalog(t), Config{
		Logger: lg, SlowQuery: time.Nanosecond,
	})
	res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "session": "obs"})
	if res.status != http.StatusOK {
		t.Fatalf("status = %d", res.status)
	}

	// The logs are written before the response trailer, but poll anyway so
	// the assertion never races the handler's final flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := out.String()
		if strings.Contains(s, `"msg":"query finished"`) && strings.Contains(s, `"msg":"slow query"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("logs missing finished/slow records:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s := out.String()
	for _, want := range []string{
		`"msg":"query admitted"`,
		`"query_id":1`,
		`"status":"ok"`,
		`"rows":5`,
		`"session":"obs"`,
		`"threshold_ms"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("log output missing %s:\n%s", want, s)
		}
	}
}

// TestRejectionLogged saturates admission and asserts the rejection is
// logged and counted without touching the completed ring (it never ran).
func TestRejectionLogged(t *testing.T) {
	var out syncBuffer
	lg := slog.New(slog.NewTextHandler(&out, nil))
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{
		MaxInFlight: 1, QueueDepth: 0, Logger: lg,
	})
	go postQuery(t, client, ts.URL, map[string]any{"sql": slowJoin, "deadline_ms": 10_000})
	waitInflight(t, client, ts.URL, 1)
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": slowJoin}); res.status != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", res.status)
	}
	if !strings.Contains(out.String(), "query rejected") {
		t.Errorf("rejection not logged:\n%s", out.String())
	}
	if recs := fetchQueries(t, client, ts.URL, ""); len(recs) != 0 {
		t.Errorf("rejected query reached the completed ring: %+v", recs)
	}
	srv.Shutdown(50 * time.Millisecond)
}

// TestBuildInfoMetric asserts the configured version reaches the
// stemsd_build_info gauge with the running Go version alongside it.
func TestBuildInfoMetric(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{Version: "v9.9.9"})
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `stemsd_build_info{version="v9.9.9",go="go`) {
		t.Errorf("metrics missing build info with version label:\n%s", sb.String())
	}
}

// logFinishedBoxed is how logFinished wrote its records before it built them
// on the stack: the oracle for TestLogFinishedBytes.
func logFinishedBoxed(lg *slog.Logger, rec *queryRecord, slow time.Duration) {
	attrs := []any{
		slog.Uint64("query_id", rec.ID),
		slog.String("status", rec.Status),
		slog.Int("rows", rec.Rows),
		slog.Float64("queue_ms", rec.QueueMS),
		slog.Float64("elapsed_ms", rec.ElapsedMS),
		slog.String("sql", rec.SQL),
	}
	if rec.Session != "" {
		attrs = append(attrs, slog.String("session", rec.Session))
	}
	if rec.Error != "" {
		attrs = append(attrs, slog.String("error", rec.Error))
	}
	lg.Info("query finished", attrs...)
	if slow > 0 && rec.ElapsedMS >= float64(slow)/float64(time.Millisecond) {
		lg.Warn("slow query",
			slog.Uint64("query_id", rec.ID),
			slog.Float64("elapsed_ms", rec.ElapsedMS),
			slog.Float64("threshold_ms", float64(slow)/float64(time.Millisecond)),
			slog.String("sql", rec.SQL))
	}
}

// TestLogFinishedBytes: the finished and slow-query lines are byte for byte
// what the boxed implementation wrote, with and without a session and an
// error, through the text and the JSON handler; a logger that drops Info
// writes no finished line, still writes the slow one, and allocates nothing
// for a fast query.
func TestLogFinishedBytes(t *testing.T) {
	noTime := func(groups []string, a slog.Attr) slog.Attr {
		if len(groups) == 0 && a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	handlers := map[string]func(io.Writer, slog.Level) slog.Handler{
		"text": func(w io.Writer, l slog.Level) slog.Handler {
			return slog.NewTextHandler(w, &slog.HandlerOptions{Level: l, ReplaceAttr: noTime})
		},
		"json": func(w io.Writer, l slog.Level) slog.Handler {
			return slog.NewJSONHandler(w, &slog.HandlerOptions{Level: l, ReplaceAttr: noTime})
		},
	}
	base := queryRecord{ID: 7, SQL: `SELECT r.a FROM r WHERE r.b = 'x y'`, Status: "ok", Rows: 3, QueueMS: 0.25, ElapsedMS: 12.5}
	recs := map[string]queryRecord{"plain": base}
	rec := base
	rec.Session = "s1"
	recs["session"] = rec
	rec = base
	rec.Status, rec.Error = "error", `eddy: module SM(r.b = "x") panicked: boom`
	recs["error"] = rec
	rec.Session = "s2"
	recs["session+error"] = rec
	for hname, h := range handlers {
		for rname, rec := range recs {
			for _, level := range []slog.Level{slog.LevelInfo, slog.LevelWarn} {
				for _, slow := range []time.Duration{0, time.Millisecond} {
					var got, want bytes.Buffer
					logFinished(slog.New(h(&got, level)), &rec, slow)
					logFinishedBoxed(slog.New(h(&want, level)), &rec, slow)
					if got.String() != want.String() {
						t.Errorf("%s/%s/%v/slow=%v:\ngot  %q\nwant %q", hname, rname, level, slow, got.String(), want.String())
					}
					if level == slog.LevelInfo && !strings.Contains(got.String(), "query finished") {
						t.Errorf("%s/%s: no finished line at Info: %q", hname, rname, got.String())
					}
					if level == slog.LevelWarn && strings.Contains(got.String(), "query finished") {
						t.Errorf("%s/%s: finished line at Warn: %q", hname, rname, got.String())
					}
					if (slow > 0) != strings.Contains(got.String(), "slow query") {
						t.Errorf("%s/%s/%v/slow=%v: slow line %q", hname, rname, level, slow, got.String())
					}
				}
			}
		}
	}

	quiet := slog.New(handlers["text"](io.Discard, slog.LevelWarn))
	if avg := testing.AllocsPerRun(100, func() { logFinished(quiet, &base, 0) }); avg != 0 {
		t.Errorf("a dropped finished line makes %.1f allocations, want none", avg)
	}
	text := slog.New(handlers["text"](io.Discard, slog.LevelInfo))
	rec = recs["session+error"]
	t.Logf("%.1f allocations per finished line (text handler)",
		testing.AllocsPerRun(100, func() { logFinished(text, &rec, 0) }))
}
