// prepared_test.go covers the Parse → Prepare → Execute pipeline: PREPARE /
// EXECUTE statements, the plan/router cache (hits, lazy invalidation on
// REGISTER, LRU eviction), the /plans endpoint, and — under -race — a storm
// of concurrent EXECUTEs against catalog churn and session cancellation,
// asserting the pooled path is result-identical to the unprepared one.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sql"
)

// rowMultiset folds NDJSON rows into a canonical multiset for
// result-identity assertions across execution paths.
func rowMultiset(rows []map[string]any) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%v;", k, r[k])
		}
		out[b.String()]++
	}
	return out
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func metricsBody(t testing.TB, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	return body.String()
}

// plansBody decodes GET /plans.
func plansBody(t testing.TB, client *http.Client, url string) (prepared []map[string]any, plans []map[string]any) {
	t.Helper()
	resp, err := client.Get(url + "/plans")
	if err != nil {
		t.Fatalf("GET /plans: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Prepared []map[string]any `json:"prepared"`
		Plans    []map[string]any `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /plans: %v", err)
	}
	return out.Prepared, out.Plans
}

// TestPrepareExecuteMatchesAdhoc prepares the 3-way join, EXECUTEs it
// repeatedly through the plan cache, and asserts every execution matches
// the unprepared path (a cache-disabled server over an identical catalog).
func TestPrepareExecuteMatchesAdhoc(t *testing.T) {
	_, ots, oclient := newTestServer(t, memCatalog(t), Config{PlanCacheSize: -1})
	want := rowMultiset(postQuery(t, oclient, ots.URL, map[string]any{"sql": threeWayJoin}).rows)
	if len(want) == 0 {
		t.Fatal("oracle produced no rows")
	}

	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	prep := postQuery(t, client, ts.URL, map[string]any{"sql": "PREPARE hot AS " + threeWayJoin})
	if prep.status != http.StatusOK {
		t.Fatalf("PREPARE: status=%d err=%q", prep.status, prep.errLine)
	}
	for i := 0; i < 4; i++ {
		res := postQuery(t, client, ts.URL, map[string]any{"sql": "EXECUTE hot"})
		if res.status != http.StatusOK {
			t.Fatalf("EXECUTE %d: status=%d err=%q", i, res.status, res.errLine)
		}
		if got := rowMultiset(res.rows); !sameMultiset(want, got) {
			t.Fatalf("EXECUTE %d: rows diverge from unprepared path:\nwant %v\ngot  %v", i, want, got)
		}
	}

	// The first EXECUTE misses (binds and builds), the rest hit.
	met := metricsBody(t, client, ts.URL)
	for _, want := range []string{
		"stemsd_plan_cache_hits_total 3",
		"stemsd_plan_cache_misses_total 1",
		"stemsd_plan_cache_entries 1",
		"stemsd_prepared_statements 1",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q:\n%s", want, met)
		}
	}
	preps, plans := plansBody(t, client, ts.URL)
	if len(preps) != 1 || preps[0]["name"] != "hot" {
		t.Errorf("prepared listing = %v", preps)
	}
	if len(plans) != 1 || plans[0]["hits"] != float64(3) {
		t.Errorf("plan listing = %v", plans)
	}

	// Error paths: duplicate prepare, execute of an unknown name, prepare
	// of a REGISTER (parse-level), execute of an unbindable statement.
	for _, bad := range []string{
		"PREPARE hot AS SELECT r.key FROM r",
		"EXECUTE nosuch",
		"PREPARE p2 AS REGISTER TABLE t FROM 't.csv'",
		"PREPARE p3 AS SELECT nope.x FROM nope",
	} {
		res := postQuery(t, client, ts.URL, map[string]any{"sql": bad})
		if res.status != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", bad, res.status)
		}
	}
}

// TestAdhocSelectsAutoPrepare: the same SELECT text POSTed twice shares one
// anonymous plan entry — canonicalization, not string identity, is the key.
func TestAdhocSelectsAutoPrepare(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	variants := []string{
		threeWayJoin,
		"select r.key, u.q from r, s, u where r.a = s.x and s.y = u.p",
		"SELECT   r.key ,  u.q FROM r AS r, s, u WHERE r.a = s.x AND s.y = u.p",
	}
	for _, v := range variants {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": v}); res.status != http.StatusOK {
			t.Fatalf("%q: status=%d err=%q", v, res.status, res.errLine)
		}
	}
	met := metricsBody(t, client, ts.URL)
	for _, want := range []string{
		"stemsd_plan_cache_misses_total 1",
		"stemsd_plan_cache_hits_total 2",
		"stemsd_plan_cache_entries 1",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q (spelling variants must share one plan):\n%s", want, met)
		}
	}
}

// TestPlanKeyFromBuffer: an ad-hoc SELECT's plan key — policy, NUL,
// canonical text — is rendered into the borrowed row buffer and looked up
// from its bytes, so a warm lookup allocates nothing for it. A spelling
// variant hits the same entry, another policy gets an entry of its own, and
// every /queries record carries the canonical text.
func TestPlanKeyFromBuffer(t *testing.T) {
	srv, ts, client := newTestServer(t, memCatalog(t), Config{})
	const variant = "select  r.key,u.q  FROM r,s,u where r.a=s.x and   s.y=u.p"
	for _, body := range []map[string]any{
		{"sql": threeWayJoin},
		{"sql": variant},
		{"sql": variant, "policy": "fixed"},
	} {
		if res := postQuery(t, client, ts.URL, body); res.status != http.StatusOK || len(res.rows) != 5 {
			t.Fatalf("%v: status=%d rows=%d err=%q", body, res.status, len(res.rows), res.errLine)
		}
	}
	_, plans := plansBody(t, client, ts.URL)
	hits := map[any]any{}
	for _, p := range plans {
		if p["sql"] != threeWayJoin {
			t.Errorf("plan listed as %q, want the canonical text", p["sql"])
		}
		hits[p["policy"]] = p["hits"]
	}
	if len(plans) != 2 || hits["benefitcost"] != float64(1) || hits["fixed"] != float64(0) {
		t.Errorf("plans = %v, want one benefitcost entry hit once and one fixed entry", plans)
	}
	for _, rec := range fetchQueries(t, client, ts.URL, "") {
		if rec.SQL != threeWayJoin {
			t.Errorf("query %d recorded as %q, want the canonical text", rec.ID, rec.SQL)
		}
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	st, err := sql.Parse(variant)
	if err != nil {
		t.Fatal(err)
	}
	snap, version := srv.cat.SnapshotVersioned()
	q := &live{st: st, policy: "benefitcost", buf: make([]byte, 0, 512)}
	allocs := testing.AllocsPerRun(100, func() {
		q.canon, q.stats.CacheHit = "", false
		if e, err := srv.planFor(q, snap, version); err == nil {
			e.unref()
		}
	})
	if allocs != 0 || !q.stats.CacheHit || q.canon != threeWayJoin {
		t.Errorf("warm lookup: %v allocations, hit %v, text %q; want 0, a hit, the canonical text", allocs, q.stats.CacheHit, q.canon)
	}
}

// TestPlanCacheInvalidationOnRegister re-registers a table under a cached
// plan and asserts the next execution sees the new data — the catalog
// version bump invalidates lazily, no stale plan survives.
func TestPlanCacheInvalidationOnRegister(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("r.csv", "key,a\n1,10\n2,20\n")
	write("s.csv", "x,y\n10,100\n20,200\n")
	cat := NewCatalog(0, dir)
	_, ts, client := newTestServer(t, cat, Config{})
	for _, reg := range []string{
		"REGISTER TABLE r FROM 'r.csv'",
		"REGISTER TABLE s FROM 's.csv'",
	} {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": reg}); res.status != http.StatusOK {
			t.Fatalf("%q: status=%d err=%q", reg, res.status, res.errLine)
		}
	}
	const q = "SELECT r.key, s.y FROM r, s WHERE r.a = s.x"
	postQuery(t, client, ts.URL, map[string]any{"sql": "PREPARE q AS " + q})

	res := postQuery(t, client, ts.URL, map[string]any{"sql": "EXECUTE q"})
	if res.status != http.StatusOK || len(res.rows) != 2 {
		t.Fatalf("first execute: status=%d rows=%v", res.status, res.rows)
	}

	write("r.csv", "key,a\n5,20\n")
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "REGISTER TABLE r FROM 'r.csv'"}); res.status != http.StatusOK {
		t.Fatalf("re-register: status=%d err=%q", res.status, res.errLine)
	}
	res = postQuery(t, client, ts.URL, map[string]any{"sql": "EXECUTE q"})
	if res.status != http.StatusOK || len(res.rows) != 1 {
		t.Fatalf("post-register execute: status=%d rows=%v", res.status, res.rows)
	}
	if res.rows[0]["r.key"] != float64(5) || res.rows[0]["s.y"] != float64(200) {
		t.Errorf("stale plan: row = %v, want r.key=5 s.y=200", res.rows[0])
	}
	if met := metricsBody(t, client, ts.URL); !strings.Contains(met, "stemsd_plan_cache_invalidations_total 1") {
		t.Errorf("metrics missing invalidation count:\n%s", met)
	}
}

// TestPlanCacheLRUEviction bounds the cache at 2 entries and runs 3
// distinct queries: the oldest is evicted, and re-running it misses.
func TestPlanCacheLRUEviction(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{PlanCacheSize: 2})
	queries := []string{
		"SELECT r.key FROM r",
		"SELECT s.y FROM s",
		"SELECT u.q FROM u",
	}
	for _, q := range queries {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": q}); res.status != http.StatusOK {
			t.Fatalf("%q: status=%d", q, res.status)
		}
	}
	_, plans := plansBody(t, client, ts.URL)
	if len(plans) != 2 {
		t.Fatalf("cache holds %d entries, want 2: %v", len(plans), plans)
	}
	met := metricsBody(t, client, ts.URL)
	if !strings.Contains(met, "stemsd_plan_cache_evictions_total 1") {
		t.Errorf("metrics missing eviction count:\n%s", met)
	}
	// The evicted (least recently used) plan misses again.
	postQuery(t, client, ts.URL, map[string]any{"sql": queries[0]})
	if met := metricsBody(t, client, ts.URL); !strings.Contains(met, "stemsd_plan_cache_misses_total 4") {
		t.Errorf("re-running the evicted plan should miss:\n%s", met)
	}
}

// TestPlanCacheDisabled: PlanCacheSize < 0 turns the whole pipeline off —
// every SELECT takes the fresh-build path and /plans stays empty.
func TestPlanCacheDisabled(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{PlanCacheSize: -1})
	for i := 0; i < 2; i++ {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); res.status != http.StatusOK || len(res.rows) != 5 {
			t.Fatalf("run %d: status=%d rows=%d", i, res.status, len(res.rows))
		}
	}
	_, plans := plansBody(t, client, ts.URL)
	if len(plans) != 0 {
		t.Errorf("disabled cache holds entries: %v", plans)
	}
	if met := metricsBody(t, client, ts.URL); !strings.Contains(met, "stemsd_plan_cache_hits_total 0") {
		t.Errorf("disabled cache counted hits:\n%s", met)
	}
}

// TestPreparedStormWithInvalidationAndCancel is the -race stress for the
// pooled path: 8 workers EXECUTE a prepared join in a tight loop while one
// goroutine re-REGISTERs a joined table (bumping the catalog version and
// invalidating the plan mid-storm) and another repeatedly starts a
// session-scoped EXECUTE and DELETEs the session mid-flight. Every
// successful execution must be result-identical to the unprepared path; the
// CSV content never changes, so invalidation must be invisible in results.
func TestPreparedStormWithInvalidationAndCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	var rcsv, scsv strings.Builder
	rcsv.WriteString("key,a\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&rcsv, "%d,%d\n", i, i%20)
	}
	scsv.WriteString("x,y\n")
	for j := 0; j < 20; j++ {
		fmt.Fprintf(&scsv, "%d,%d\n", j, j*7)
	}
	for name, content := range map[string]string{"r.csv": rcsv.String(), "s.csv": scsv.String()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const q = "SELECT r.key, s.y FROM r, s WHERE r.a = s.x"

	// Oracle: unprepared execution on a cache-disabled server.
	ocat := NewCatalog(0, "")
	if _, err := ocat.RegisterLocalCSV("r", filepath.Join(dir, "r.csv"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ocat.RegisterLocalCSV("s", filepath.Join(dir, "s.csv"), nil); err != nil {
		t.Fatal(err)
	}
	osrv, ots, oclient := newTestServer(t, ocat, Config{PlanCacheSize: -1})
	want := rowMultiset(postQuery(t, oclient, ots.URL, map[string]any{"sql": q}).rows)
	if len(want) != 400 {
		t.Fatalf("oracle produced %d distinct rows, want 400", len(want))
	}

	cat := NewCatalog(0, dir)
	if _, err := cat.RegisterLocalCSV("r", filepath.Join(dir, "r.csv"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.RegisterLocalCSV("s", filepath.Join(dir, "s.csv"), nil); err != nil {
		t.Fatal(err)
	}
	srv, ts, client := newTestServer(t, cat, Config{MaxInFlight: 8, QueueDepth: 256})
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "PREPARE hot AS " + q}); res.status != http.StatusOK {
		t.Fatalf("PREPARE: status=%d err=%q", res.status, res.errLine)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Catalog churner: re-REGISTER r with identical content — every pass
	// bumps the version and invalidates the hot plan.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := postQuery(t, client, ts.URL, map[string]any{"sql": "REGISTER TABLE r FROM 'r.csv'"})
			if res.status != http.StatusOK && res.status != http.StatusTooManyRequests {
				t.Errorf("mid-storm REGISTER: status=%d err=%q", res.status, res.errLine)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Session canceller: start a session-scoped EXECUTE, DELETE the session
	// while it may still be running. Completed-first runs must match the
	// oracle; canceled runs must fail loudly, never return wrong rows.
	churn.Add(1)
	go func() {
		defer churn.Done()
		var inner sync.WaitGroup
		defer inner.Wait()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			session := fmt.Sprintf("cancel-%d", i)
			inner.Add(1)
			go func() {
				defer inner.Done()
				res := postQuery(t, client, ts.URL, map[string]any{"sql": "EXECUTE hot", "session": session})
				if res.status == http.StatusOK && res.errLine == "" && res.trailer != nil {
					if got := rowMultiset(res.rows); !sameMultiset(want, got) {
						t.Errorf("canceled-session run completed with wrong rows: %d distinct, want %d", len(got), len(want))
					}
				}
			}()
			time.Sleep(time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+session, nil)
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
			inner.Wait()
		}
	}()

	// The storm: 8 workers EXECUTE the prepared statement back to back.
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				res := postQuery(t, client, ts.URL, map[string]any{"sql": "EXECUTE hot"})
				if res.status != http.StatusOK {
					t.Errorf("worker %d run %d: status=%d err=%q", w, i, res.status, res.errLine)
					return
				}
				if got := rowMultiset(res.rows); !sameMultiset(want, got) {
					t.Errorf("worker %d run %d: rows diverge from unprepared path (%d distinct, want %d)",
						w, i, len(got), len(want))
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	churn.Wait()

	met := metricsBody(t, client, ts.URL)
	for _, name := range []string{"stemsd_plan_cache_hits_total", "stemsd_plan_cache_invalidations_total"} {
		n, found := uint64(0), false
		for _, line := range strings.Split(met, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				fmt.Sscanf(rest, "%d", &n)
				found = true
			}
		}
		if !found {
			t.Fatalf("metrics missing %q", name)
		}
		if n == 0 {
			t.Errorf("%s = 0, want > 0 (storm must both hit and invalidate)", name)
		}
	}

	srv.Shutdown(time.Second)
	osrv.Shutdown(time.Second)
	ts.Close()
	ots.Close()
	client.CloseIdleConnections()
	oclient.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}
