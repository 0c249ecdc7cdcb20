package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
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

// seqRows returns n rows (i, i%k) for join fan-out control.
func seqRows(n int, k int64) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = intRow(int64(i), int64(i)%k)
	}
	return out
}

// memCatalog builds an in-memory catalog with three joinable tables:
// r(key,a), s(x,y), u(p,q); r.a = s.x and s.y = u.p give a 3-way join with
// a known result count.
func memCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog(0, "")
	add := func(name string, cols []schema.Column, rows []tuple.Row) {
		sch, err := schema.NewTable(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := source.NewTable(sch, rows)
		if err != nil {
			t.Fatal(err)
		}
		cat.Put(name, sql.Source{Data: data, Scan: &source.ScanSpec{}})
	}
	add("r", []schema.Column{schema.IntCol("key"), schema.IntCol("a")},
		[]tuple.Row{intRow(1, 10), intRow(2, 20), intRow(3, 10)})
	add("s", []schema.Column{schema.IntCol("x"), schema.IntCol("y")},
		[]tuple.Row{intRow(10, 100), intRow(20, 200)})
	add("u", []schema.Column{schema.IntCol("p"), schema.IntCol("q")},
		[]tuple.Row{intRow(100, 7), intRow(200, 8), intRow(100, 9)})
	return cat
}

// threeWayJoin is the canonical test query; over memCatalog it yields
// r{1,3}×s{10}×u{100,100} + r{2}×s{20}×u{200} = 2*2 + 1 = 5 rows.
const threeWayJoin = "SELECT r.key, u.q FROM r, s, u WHERE r.a = s.x AND s.y = u.p"

type ndjsonResult struct {
	status  int
	rows    []map[string]any
	trailer map[string]any
	trace   map[string]any
	errLine string
}

// postQuery POSTs a query and decodes the NDJSON response. It reports
// failures with Errorf (not Fatal) so it is safe to call from spawned
// goroutines; on transport errors the zero-status result fails the
// caller's assertions.
func postQuery(t testing.TB, client *http.Client, url string, body any) ndjsonResult {
	t.Helper()
	var res ndjsonResult
	payload, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshal request: %v", err)
		return res
	}
	resp, err := client.Post(url+"/query", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Errorf("POST /query: %v", err)
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Errorf("bad NDJSON line %q: %v", line, err)
			return res
		}
		switch {
		case obj["row"] != nil:
			res.rows = append(res.rows, obj["row"].(map[string]any))
		case obj["done"] == true || obj["registered"] != nil:
			res.trailer = obj
		case obj["trace"] != nil:
			res.trace = obj["trace"].(map[string]any)
		case obj["error"] != nil:
			res.errLine = obj["error"].(string)
		}
	}
	if err := sc.Err(); err != nil {
		t.Errorf("reading response: %v", err)
	}
	return res
}

func newTestServer(t testing.TB, cat *Catalog, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv := New(cat, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()
	t.Cleanup(client.CloseIdleConnections)
	return srv, ts, client
}

// waitForGoroutines polls until the goroutine count falls back to the
// baseline, dumping stacks on timeout — the zero-leak assertion for engine
// cancellation and server drain.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("leaked goroutines: %d running, baseline %d\n%s", n, baseline, buf[:sz])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// goroutineHighWater runs fn while sampling the process's goroutine count
// every 20 µs and returns the highest count seen. Sampling can miss a
// short-lived peak but never overstates one.
func goroutineHighWater(fn func()) int {
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		hi := 0
		for {
			select {
			case <-stop:
				sampled <- hi
				return
			default:
				hi = max(hi, runtime.NumGoroutine())
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	fn()
	close(stop)
	return <-sampled
}

func TestQueryStreamsRows(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
	if res.status != http.StatusOK {
		t.Fatalf("status = %d", res.status)
	}
	if len(res.rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.rows))
	}
	if res.trailer == nil || res.trailer["rows"] != float64(5) {
		t.Errorf("trailer = %v", res.trailer)
	}
	if res.trailer["routing_steps"] == float64(0) {
		t.Errorf("trailer reports no routing steps: %v", res.trailer)
	}
	// Spot-check one row's shape: projected labels carry alias.column names.
	if _, ok := res.rows[0]["r.key"]; !ok {
		t.Errorf("row missing r.key: %v", res.rows[0])
	}
}

func TestOrderByLimitBuffered(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	res := postQuery(t, client, ts.URL, map[string]any{
		"sql": "SELECT r.key FROM r, s WHERE r.a = s.x ORDER BY r.key DESC LIMIT 2",
	})
	if res.status != http.StatusOK || len(res.rows) != 2 {
		t.Fatalf("status=%d rows=%v", res.status, res.rows)
	}
	if res.rows[0]["r.key"] != float64(3) || res.rows[1]["r.key"] != float64(2) {
		t.Errorf("order wrong: %v", res.rows)
	}
}

func TestParseAndBindErrorsAre400(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	for _, sqlText := range []string{
		"SELEC nope",
		"SELECT * FROM nosuch",
		"SELECT * FROM r WHERE a = 'oops",
	} {
		res := postQuery(t, client, ts.URL, map[string]any{"sql": sqlText})
		if res.status != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", sqlText, res.status)
		}
	}
}

// TestRegisterTableAtRuntime registers CSVs through the query endpoint and
// immediately joins across them — the shared catalog is mutable while the
// server runs.
func TestRegisterTableAtRuntime(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("people.csv", "id,name\n1,ada\n2,bob\n3,cyd\n")
	mustWrite("orders.csv", "id,person,total\n10,1,100\n11,1,150\n12,3,50\n")

	cat := NewCatalog(0, dir)
	_, ts, client := newTestServer(t, cat, Config{})

	reg := postQuery(t, client, ts.URL, map[string]any{
		"sql": "REGISTER TABLE people FROM 'people.csv' INDEX id LATENCY 1ms",
	})
	if reg.status != http.StatusOK || reg.trailer["registered"] != "people" || reg.trailer["rows"] != float64(3) {
		t.Fatalf("register people: status=%d trailer=%v", reg.status, reg.trailer)
	}
	reg = postQuery(t, client, ts.URL, map[string]any{
		"sql": "REGISTER TABLE orders FROM 'orders.csv'",
	})
	if reg.status != http.StatusOK {
		t.Fatalf("register orders: %+v", reg)
	}

	res := postQuery(t, client, ts.URL, map[string]any{
		"sql": "SELECT people.name, orders.total FROM people, orders WHERE people.id = orders.person",
	})
	if res.status != http.StatusOK || len(res.rows) != 3 {
		t.Fatalf("join over registered tables: status=%d rows=%v", res.status, res.rows)
	}

	// The data dir confines registration paths: lexical `..` escapes,
	// absolute paths, and symlinks pointing outside are all rejected.
	outside := filepath.Join(t.TempDir(), "outside.csv")
	if err := os.WriteFile(outside, []byte("id\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(outside, filepath.Join(dir, "link.csv")); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"../outside.csv", outside, "link.csv"} {
		esc := postQuery(t, client, ts.URL, map[string]any{
			"sql": fmt.Sprintf("REGISTER TABLE evil FROM '%s'", path),
		})
		if esc.status != http.StatusBadRequest {
			t.Errorf("path escape via %q: status = %d, want 400", path, esc.status)
		}
	}
}

// TestRequestCannotSizeTheEngine pins that batch size and seed are the
// operator's and the engine is the server's: a request naming them — or
// "shards", which SteMs no longer have — is served exactly like one that does
// not (unknown JSON fields are ignored), so no client can make the server
// start goroutines, allocate a staging batch of its choosing, or run the
// simulator. Before the request fields were removed, {"shards":1048576}
// against this 3-row catalog peaked above three million goroutines and
// {"batch":67108864} allocated 512 MB for the 5-row join.
func TestRequestCannotSizeTheEngine(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	// measure posts one request while sampling the goroutine count, and
	// returns the peak and the bytes the process allocated meanwhile.
	measure := func(body map[string]any) (peak int, alloc uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res ndjsonResult
		peak = goroutineHighWater(func() { res = postQuery(t, client, ts.URL, body) })
		runtime.ReadMemStats(&after)
		if res.status != http.StatusOK || len(res.rows) != 5 {
			t.Fatalf("%v: status=%d rows=%d err=%q", body, res.status, len(res.rows), res.errLine)
		}
		return peak, after.TotalAlloc - before.TotalAlloc
	}
	// The sampler can only miss goroutines, never invent them, and a 5-row
	// join can live and die between two samples: the base is the maximum over
	// several un-knobbed requests (the first also warms the plan cache and the
	// connection), so the comparison does not hang on one lucky sample.
	basePeak, baseAlloc := 0, uint64(0)
	for i := 0; i < 8; i++ {
		peak, alloc := measure(map[string]any{"sql": threeWayJoin})
		basePeak, baseAlloc = max(basePeak, peak), max(baseAlloc, alloc)
	}
	for _, body := range []map[string]any{
		{"sql": threeWayJoin, "shards": 1048576},
		{"sql": threeWayJoin, "batch": 67108864},
		{"sql": threeWayJoin, "seed": 99, "shards": 4, "batch": 1},
		{"sql": threeWayJoin, "engine": "warp"},
	} {
		peak, alloc := measure(body)
		if peak > basePeak+16 {
			t.Errorf("%v: goroutine high-water %d, an un-knobbed request's is %d", body, peak, basePeak)
		}
		if alloc > baseAlloc+(8<<20) {
			t.Errorf("%v: allocated %d bytes, an un-knobbed request %d", body, alloc, baseAlloc)
		}
	}
}

// TestRegisteredTablesScanUnpaced pins what stemsd serves: a CSV registered
// on the catalog the commands build (NewCatalog(0, dir)) binds to scan AMs
// with no modeled pacing, and a join over it runs on a fixed handful of
// goroutines however many rows it has. Stamping an inter-arrival time in
// registerFrom, or an engine change that starts a goroutine per row (what a
// paced scan costs: one delayed delivery each), fails here and not only in
// the benchmark.
func TestRegisteredTablesScanUnpaced(t *testing.T) {
	const bigRows, dimRows = 5000, 50
	dir := t.TempDir()
	var big, dim strings.Builder
	big.WriteString("id,k\n")
	for i := 0; i < bigRows; i++ {
		fmt.Fprintf(&big, "%d,%d\n", i, i%dimRows)
	}
	dim.WriteString("k,v\n")
	for j := 0; j < dimRows; j++ {
		fmt.Fprintf(&dim, "%d,%d\n", j, j*7)
	}
	cat := NewCatalog(0, dir)
	for name, content := range map[string]string{"big": big.String(), "dim": dim.String()} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.RegisterCSV(name, name+".csv", nil); err != nil {
			t.Fatal(err)
		}
	}

	const q = "SELECT big.id, dim.v FROM big, dim WHERE big.k = dim.k"
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sql.Bind(st, cat.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	scans := 0
	for _, am := range bound.Q.AMs {
		if am.Kind != query.Scan {
			continue
		}
		scans++
		if !reflect.DeepEqual(am.ScanSpec, source.ScanSpec{}) {
			t.Errorf("scan AM on table %d is paced: %+v", am.Table, am.ScanSpec)
		}
	}
	if scans != 2 {
		t.Fatalf("bound %d scan AMs, want 2", scans)
	}

	_, ts, client := newTestServer(t, cat, Config{})
	var res ndjsonResult
	peak := goroutineHighWater(func() { res = postQuery(t, client, ts.URL, map[string]any{"sql": q}) })
	if res.status != http.StatusOK || len(res.rows) != bigRows {
		t.Fatalf("status=%d rows=%d err=%q, want %d rows", res.status, len(res.rows), res.errLine, bigRows)
	}
	if peak >= 100 {
		t.Errorf("goroutine high-water %d while joining %d rows, want < 100", peak, bigRows)
	}
}

// TestConcurrentSessionsSharedCatalog exercises the acceptance criterion:
// ≥8 concurrent streaming queries over one shared catalog, with a
// concurrent runtime registration mixed in, all under -race in CI.
func TestConcurrentSessionsSharedCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "extra.csv"), []byte("id,v\n1,10\n2,20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := memCatalog(t)
	cat.dir = dir
	srv, ts, client := newTestServer(t, cat, Config{MaxInFlight: 16, QueueDepth: 32})

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := postQuery(t, client, ts.URL, map[string]any{
				"sql":     threeWayJoin,
				"session": fmt.Sprintf("sess-%d", i%4),
			})
			if res.status != http.StatusOK || len(res.rows) != 5 {
				errs <- fmt.Errorf("query %d: status=%d rows=%d err=%q", i, res.status, len(res.rows), res.errLine)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res := postQuery(t, client, ts.URL, map[string]any{
			"sql": "REGISTER TABLE extra FROM 'extra.csv'",
		})
		if res.status != http.StatusOK {
			errs <- fmt.Errorf("concurrent register: status=%d", res.status)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := cat.Len(); got != 4 {
		t.Errorf("catalog tables = %d, want 4", got)
	}
	// Auto-created sessions reap once idle — a fresh session ID per query
	// must not grow the session map without bound.
	if n := srv.sessionCount(); n != 0 {
		t.Errorf("implicit sessions not reaped: %d remain", n)
	}

	// Explicit sessions persist until DELETE.
	resp, err := client.Post(ts.URL+"/session", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "session": created.ID}); res.status != http.StatusOK {
		t.Fatalf("explicit-session query: %d", res.status)
	}
	if n := srv.sessionCount(); n != 1 {
		t.Errorf("explicit session reaped early: count = %d, want 1", n)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+created.ID, nil)
	if dresp, err := client.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}
	if n := srv.sessionCount(); n != 0 {
		t.Errorf("session survives DELETE: count = %d", n)
	}
}

// slowCatalog paces scans at 20 virtual seconds per row — 20 ms of wall time
// at the engine's fixed clock scale — so a 2-way join runs for several wall
// seconds: long enough to cancel mid-join.
func slowCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog(20*time.Second, "")
	scan := source.ScanSpec{InterArrival: 20 * clock.Second}
	sch1, _ := schema.NewTable("big", schema.IntCol("k"), schema.IntCol("a"))
	d1, _ := source.NewTable(sch1, seqRows(400, 50))
	cat.Put("big", sql.Source{Data: d1, Scan: &scan})
	sch2, _ := schema.NewTable("dim", schema.IntCol("b"), schema.IntCol("v"))
	d2, _ := source.NewTable(sch2, seqRows(50, 50))
	cat.Put("dim", sql.Source{Data: d2, Scan: &scan})
	return cat
}

const slowJoin = "SELECT big.k, dim.v FROM big, dim WHERE big.a = dim.b"

// TestDeadlineCancelsMidJoin fires a per-query deadline while the scans are
// still delivering and asserts the engine unwinds without leaking
// goroutines.
func TestDeadlineCancelsMidJoin(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{})

	start := time.Now()
	res := postQuery(t, client, ts.URL, map[string]any{
		"sql":         slowJoin,
		"deadline_ms": 250,
	})
	elapsed := time.Since(start)
	// The full join needs ~8s of paced scanning; the deadline must cut it
	// far shorter.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not fire: query ran %v", elapsed)
	}
	// Either the deadline fired before any row escaped (504) or it cut the
	// stream mid-flight (in-band error line).
	failed := res.errLine != "" || res.status == http.StatusGatewayTimeout
	if !failed {
		t.Fatalf("expected a deadline error, got status=%d rows=%d trailer=%v",
			res.status, len(res.rows), res.trailer)
	}
	if want := "query deadline 250ms exceeded"; res.errLine != want {
		t.Errorf("error = %q (status %d), want %q", res.errLine, res.status, want)
	}

	// Metrics recorded the cancellation.
	metResp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metBody := new(strings.Builder)
	if _, err := io.Copy(metBody, metResp.Body); err != nil {
		t.Fatal(err)
	}
	metResp.Body.Close()
	if !strings.Contains(metBody.String(), `stemsd_queries_total{status="canceled"} 1`) {
		t.Errorf("metrics missing canceled count:\n%s", metBody)
	}

	// Zero leaked goroutines once the server is gone.
	srv.Shutdown(time.Second)
	ts.Close()
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestGracefulShutdownDrain starts a long query, drains with a window too
// short for it, and asserts the query is canceled, new work is rejected,
// and no goroutine outlives the server.
func TestGracefulShutdownDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{})

	type outcome struct {
		res ndjsonResult
	}
	resCh := make(chan outcome, 1)
	go func() {
		resCh <- outcome{postQuery(t, client, ts.URL, map[string]any{
			"sql":         slowJoin,
			"deadline_ms": 60_000,
		})}
	}()

	// Wait until the query is actually executing.
	waitInflight(t, client, ts.URL, 1)

	done := make(chan struct{})
	go func() {
		srv.Shutdown(200 * time.Millisecond)
		close(done)
	}()

	// While draining (and after), new queries are rejected.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res := postQuery(t, client, ts.URL, map[string]any{"sql": slowJoin})
		if res.status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server accepted a query: status=%d", res.status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	out := (<-resCh).res
	if out.errLine == "" && out.status == http.StatusOK && out.trailer != nil {
		t.Errorf("long query finished despite drain cancel: %v", out.trailer)
	}
	<-done

	// Liveness stays 200 while draining; readiness flips to 503 with the
	// draining marker so load balancers stop routing.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness)", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Draining bool `json:"draining"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !ready.Draining {
		t.Errorf("readyz while draining = %d draining=%v, want 503 with draining true", resp.StatusCode, ready.Draining)
	}

	ts.Close()
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// waitInflight polls /healthz until the in-flight gauge reaches want.
func waitInflight(t *testing.T, client *http.Client, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Inflight int `json:"inflight"`
		}
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Inflight >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionRejectsBeyondQueue saturates a MaxInFlight=1/QueueDepth=0
// server and asserts the overflow arrival is rejected with 429.
func TestAdmissionRejectsBeyondQueue(t *testing.T) {
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{
		MaxInFlight: 1, QueueDepth: 0,
	})
	go postQuery(t, client, ts.URL, map[string]any{"sql": slowJoin, "deadline_ms": 10_000})
	waitInflight(t, client, ts.URL, 1)

	res := postQuery(t, client, ts.URL, map[string]any{"sql": slowJoin})
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", res.status)
	}
	srv.Shutdown(50 * time.Millisecond)
}

// TestSessionDeleteCancelsQueries closes a session mid-query and asserts
// its in-flight query is canceled.
func TestSessionDeleteCancelsQueries(t *testing.T) {
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{})
	resCh := make(chan ndjsonResult, 1)
	go func() {
		resCh <- postQuery(t, client, ts.URL, map[string]any{
			"sql": slowJoin, "session": "doomed", "deadline_ms": 60_000,
		})
	}()
	waitInflight(t, client, ts.URL, 1)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/doomed", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session = %d", resp.StatusCode)
	}

	res := <-resCh
	ok := res.errLine != "" || res.status != http.StatusOK
	if !ok {
		t.Fatalf("session query survived session close: status=%d trailer=%v", res.status, res.trailer)
	}
	msg := res.errLine
	if msg != "" && !strings.Contains(msg, "session") {
		t.Errorf("cancel cause does not mention the session: %q", msg)
	}
	srv.Shutdown(50 * time.Millisecond)
}

// TestHealthzAndTables sanity-checks the observability endpoints.
func TestHealthzAndTables(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string   `json:"status"`
		Tables []string `json:"tables"`
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || len(h.Tables) != 3 {
		t.Errorf("healthz = %+v", h)
	}

	postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	io.Copy(body, mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`stemsd_queries_total{status="ok"} 1`,
		"stemsd_rows_streamed_total 5",
		"stemsd_catalog_tables 3",
		"stemsd_routing_steps_total",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
