package server

// Standing-query (subscription) and live-ingestion tests: the server-level
// delta-equivalence property, the subscription lifecycle under faults (slow
// consumers, client disconnect mid-stream, server drain with live
// subscribers), and INSERT's interaction with the plan cache and shared
// SteMs. The engine-level equivalence harness lives in
// internal/core/standing_test.go; this file asserts the same invariant
// through the HTTP surface, where cancellation, admission, and metrics
// accounting can break it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// subStream is an open subscription response: a reader goroutine pumps
// decoded NDJSON lines into a channel so tests can wait with timeouts.
type subStream struct {
	resp  *http.Response
	lines chan map[string]any
}

// openSubscription POSTs body (which should set "subscribe":true) and
// returns the open stream. Fails the test on a non-200 status.
func openSubscription(t testing.TB, client *http.Client, url string, body any) *subStream {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/query", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		b := make([]byte, 1024)
		n, _ := resp.Body.Read(b)
		resp.Body.Close()
		t.Fatalf("subscription status %d: %s", resp.StatusCode, b[:n])
	}
	s := &subStream{resp: resp, lines: make(chan map[string]any, 4096)}
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var obj map[string]any
			if json.Unmarshal([]byte(line), &obj) != nil {
				return
			}
			s.lines <- obj
		}
	}()
	return s
}

// next returns the next NDJSON object or fails after timeout.
func (s *subStream) next(t testing.TB, timeout time.Duration) map[string]any {
	t.Helper()
	select {
	case obj, ok := <-s.lines:
		if !ok {
			t.Fatal("subscription stream closed unexpectedly")
		}
		return obj
	case <-time.After(timeout):
		t.Fatal("timed out waiting for a subscription line")
	}
	return nil
}

// closed reports whether the stream ends (EOF) within timeout.
func (s *subStream) closed(timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case _, ok := <-s.lines:
			if !ok {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

func (s *subStream) close() { s.resp.Body.Close() }

// rowKey canonicalizes a decoded row map for multiset comparison
// (json.Marshal sorts map keys).
func rowKey(t testing.TB, row map[string]any) string {
	t.Helper()
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postInsert POSTs rows to /insert and returns the response status.
func postInsert(t testing.TB, client *http.Client, url, table string, rows [][]any) int {
	t.Helper()
	st, _ := postInsertErr(t, client, url, table, rows)
	return st
}

// postInsertErr is postInsert that also returns the response's error
// message, if any.
func postInsertErr(t testing.TB, client *http.Client, url, table string, rows [][]any) (int, string) {
	t.Helper()
	payload, err := json.Marshal(map[string]any{"table": table, "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/insert", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Errorf("POST /insert: %v", err)
		return 0, ""
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Error
}

// TestSubscribeDeltaExact is the server-level delta-equivalence property:
// a standing 3-way join fed interleaved inserts from three concurrent
// writers (mixing INSERT SQL and POST /insert) emits exactly the multiset
// of rows an equivalent batch query over the final table state returns.
func TestSubscribeDeltaExact(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		cat := memCatalog(t)
		_, ts, client := newTestServer(t, cat, Config{})

		sub := openSubscription(t, client, ts.URL, map[string]any{
			"sql": threeWayJoin, "subscribe": true,
		})
		defer sub.close()

		// Read the snapshot: rows until the snapshot marker.
		var got []string
		for {
			obj := sub.next(t, 10*time.Second)
			if row, ok := obj["row"].(map[string]any); ok {
				got = append(got, rowKey(t, row))
				continue
			}
			if obj["snapshot"] == true {
				if int(obj["rows"].(float64)) != len(got) {
					t.Fatalf("snapshot marker says %v rows, got %d", obj["rows"], len(got))
				}
				break
			}
			t.Fatalf("unexpected line before snapshot: %v", obj)
		}

		// Interleaved inserts from three concurrent writers. Keys stay in
		// the joinable domain so deltas actually produce rows.
		rng := rand.New(rand.NewSource(7))
		type ins struct {
			table string
			row   []any
		}
		var plan []ins
		for i := 0; i < 18; i++ {
			switch rng.Intn(3) {
			case 0:
				plan = append(plan, ins{"r", []any{100 + i, []int64{10, 20}[rng.Intn(2)]}})
			case 1:
				plan = append(plan, ins{"s", []any{[]int64{10, 20}[rng.Intn(2)], []int64{100, 200}[rng.Intn(2)]}})
			default:
				plan = append(plan, ins{"u", []any{[]int64{100, 200}[rng.Intn(2)], 1000 + i}})
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(plan); i += 3 {
					p := plan[i]
					if i%2 == 0 {
						if st := postInsert(t, client, ts.URL, p.table, [][]any{p.row}); st != http.StatusOK {
							t.Errorf("insert %d: status %d", i, st)
						}
					} else {
						stmt := fmt.Sprintf("INSERT INTO %s VALUES (%v, %v)", p.table, p.row[0], p.row[1])
						res := postQuery(t, client, ts.URL, map[string]any{"sql": stmt})
						if res.status != http.StatusOK {
							t.Errorf("insert %d: status %d", i, res.status)
						}
					}
				}
			}()
		}
		wg.Wait()

		// The batch oracle over the final state.
		oracle := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
		if oracle.status != http.StatusOK {
			t.Fatalf("oracle status %d", oracle.status)
		}
		want := make([]string, 0, len(oracle.rows))
		for _, row := range oracle.rows {
			want = append(want, rowKey(t, row))
		}
		sort.Strings(want)

		// Drain the subscription until it has emitted the full multiset.
		deadline := time.Now().Add(15 * time.Second)
		for len(got) < len(want) && time.Now().Before(deadline) {
			obj := sub.next(t, 10*time.Second)
			if row, ok := obj["row"].(map[string]any); ok {
				got = append(got, rowKey(t, row))
			}
		}
		// Allow any final in-flight row to surface, then assert there are
		// no EXTRA rows beyond the oracle's multiset.
		select {
		case obj, ok := <-sub.lines:
			if ok {
				if row, isRow := obj["row"].(map[string]any); isRow {
					got = append(got, rowKey(t, row))
				}
			}
		case <-time.After(200 * time.Millisecond):
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("standing emitted %d rows, oracle %d\nstanding: %v\noracle: %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d differs: standing %q, oracle %q", i, got[i], want[i])
			}
		}
	})
}

// TestSubscribeTableReplacedEnds pins the generation rule: an append keeps a
// subscription alive, a REGISTER replacing a subscribed table ends it
// cleanly with reason "table replaced".
func TestSubscribeTableReplacedEnds(t *testing.T) {
	cat := memCatalog(t)
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/r2.csv", []byte("key:int,a:int\n9,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat.dir = dir
	_, ts, client := newTestServer(t, cat, Config{})

	sub := openSubscription(t, client, ts.URL, map[string]any{
		"sql": "SELECT r.key, s.y FROM r, s WHERE r.a = s.x", "subscribe": true,
	})
	defer sub.close()
	for {
		if sub.next(t, 10*time.Second)["snapshot"] == true {
			break
		}
	}
	// Append: subscription survives and delivers a delta.
	if st := postInsert(t, client, ts.URL, "r", [][]any{{50, 10}}); st != http.StatusOK {
		t.Fatalf("insert status %d", st)
	}
	obj := sub.next(t, 10*time.Second)
	row, ok := obj["row"].(map[string]any)
	if !ok || row["r.key"].(float64) != 50 {
		t.Fatalf("expected delta row for r.key=50, got %v", obj)
	}
	// Replace: subscription ends with the reason in the final line.
	res := postQuery(t, client, ts.URL, map[string]any{"sql": "REGISTER TABLE r FROM 'r2.csv'"})
	if res.status != http.StatusOK {
		t.Fatalf("register status %d: %v", res.status, res)
	}
	for {
		obj := sub.next(t, 10*time.Second)
		if obj["done"] == true {
			if obj["reason"] != `table "r" replaced` {
				t.Fatalf("done reason = %v", obj["reason"])
			}
			break
		}
		if _, isRow := obj["row"].(map[string]any); !isRow {
			t.Fatalf("unexpected line: %v", obj)
		}
	}
	if !sub.closed(5 * time.Second) {
		t.Fatal("stream did not close after done line")
	}
}

// TestSubscribeClientDisconnect kills the client mid-stream and asserts the
// server unwinds the standing engine: no leaked goroutines, the subscriber
// gauge returns to zero, and the query is accounted as canceled.
func TestSubscribeClientDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cat := memCatalog(t)
	srv, ts, client := newTestServer(t, cat, Config{})

	sub := openSubscription(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "subscribe": true})
	for {
		if sub.next(t, 10*time.Second)["snapshot"] == true {
			break
		}
	}
	if g := srv.gauges(); g.subscribers != 1 {
		t.Fatalf("subscribers gauge = %d, want 1", g.subscribers)
	}
	// Queue up work so the disconnect lands mid-activity, then cut the
	// connection without reading the deltas.
	if st := postInsert(t, client, ts.URL, "r", [][]any{{60, 10}, {61, 20}}); st != http.StatusOK {
		t.Fatalf("insert status %d", st)
	}
	sub.close()

	deadline := time.Now().Add(10 * time.Second)
	for srv.subs.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber gauge stuck above zero after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	met := metricsBody(t, client, ts.URL)
	if v := metricValue(t, met, "stemsd_subscribers_active"); v != 0 {
		t.Fatalf("stemsd_subscribers_active = %d, want 0", v)
	}
	if v := metricValue(t, met, `stemsd_queries_total{status="canceled"}`); v != 1 {
		t.Fatalf("canceled queries = %d, want 1", v)
	}
	client.CloseIdleConnections()
	ts.Close()
	srv.Shutdown(time.Second)
	waitForGoroutines(t, baseline)
}

// TestSubscribeBooksEngineWork pins that a finished subscription reports the
// engine work of all its rounds: its /queries record and the server-wide
// counters carry the routing steps and the SteM builds of the snapshot and of
// every delta round, not zero.
func TestSubscribeBooksEngineWork(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	sub := openSubscription(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "subscribe": true})
	defer sub.close()
	for sub.next(t, 10*time.Second)["snapshot"] != true {
	}
	// r(60,10) joins s(10,100) and two u rows; r(61,20) joins s(20,200) and
	// one: three delta rows.
	if st := postInsert(t, client, ts.URL, "r", [][]any{{60, 10}, {61, 20}}); st != http.StatusOK {
		t.Fatalf("insert status %d", st)
	}
	for i := 0; i < 3; i++ {
		if sub.next(t, 10*time.Second)["row"] == nil {
			t.Fatalf("delta line %d is not a row", i)
		}
	}
	sub.close()

	// The 8 rows the snapshot built plus the 2 inserted ones.
	const built = 8 + 2
	var rec *queryRecord
	for deadline := time.Now().Add(10 * time.Second); rec == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the canceled subscription never reached /queries")
		}
		for _, r := range fetchQueries(t, client, ts.URL, "") {
			if r.Status == string(statusCanceled) {
				rec = &r
			}
		}
	}
	if rec.RoutingSteps == 0 || rec.StemBuilds < built {
		t.Errorf("subscription record: %d routing steps, %d SteM builds; want > 0 and ≥ %d", rec.RoutingSteps, rec.StemBuilds, built)
	}
	met := metricsBody(t, client, ts.URL)
	if v := metricValue(t, met, "stemsd_routing_steps_total"); v != rec.RoutingSteps {
		t.Errorf("stemsd_routing_steps_total = %d, the record says %d", v, rec.RoutingSteps)
	}
	if v := metricValue(t, met, "stemsd_stem_builds_total"); v != rec.StemBuilds {
		t.Errorf("stemsd_stem_builds_total = %d, the record says %d", v, rec.StemBuilds)
	}
}

// TestSubscribeSlowConsumerBackpressure reads the stream deliberately
// slowly while writers keep inserting: the engine's rounds block on the
// client write instead of buffering unboundedly, and every delta still
// arrives exactly once.
func TestSubscribeSlowConsumerBackpressure(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{})

	sub := openSubscription(t, client, ts.URL, map[string]any{
		"sql": "SELECT r.key, s.y FROM r, s WHERE r.a = s.x", "subscribe": true,
	})
	defer sub.close()
	var got []string
	for {
		obj := sub.next(t, 10*time.Second)
		if row, ok := obj["row"].(map[string]any); ok {
			got = append(got, rowKey(t, row))
			continue
		}
		if obj["snapshot"] == true {
			break
		}
	}
	const n = 30
	go func() {
		for i := 0; i < n; i++ {
			postInsert(t, client, ts.URL, "r", [][]any{{200 + i, 10}})
		}
	}()
	// Each inserted r row joins s(10,100): n delta rows, read slowly.
	for len(got) < 3+n {
		obj := sub.next(t, 15*time.Second)
		if row, ok := obj["row"].(map[string]any); ok {
			got = append(got, rowKey(t, row))
			time.Sleep(2 * time.Millisecond)
		}
	}
	oracle := postQuery(t, client, ts.URL, map[string]any{"sql": "SELECT r.key, s.y FROM r, s WHERE r.a = s.x"})
	want := make([]string, 0, len(oracle.rows))
	for _, row := range oracle.rows {
		want = append(want, rowKey(t, row))
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("slow consumer saw %d rows, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestSubscribeDrainWithLiveSubscribers starts a drain under live
// subscriptions: each ends promptly with reason "draining" (well inside the
// drain window — a subscriber must never hold the drain for its full
// timeout), Shutdown returns, and no goroutines leak.
func TestSubscribeDrainWithLiveSubscribers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cat := memCatalog(t)
	srv, ts, client := newTestServer(t, cat, Config{})

	var subs []*subStream
	for i := 0; i < 2; i++ {
		sub := openSubscription(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "subscribe": true})
		defer sub.close()
		for {
			if sub.next(t, 10*time.Second)["snapshot"] == true {
				break
			}
		}
		subs = append(subs, sub)
	}

	done := make(chan struct{})
	start := time.Now()
	go func() {
		srv.Shutdown(30 * time.Second)
		close(done)
	}()
	for _, sub := range subs {
		for {
			obj := sub.next(t, 10*time.Second)
			if obj["done"] == true {
				if obj["reason"] != "draining" {
					t.Errorf("done reason = %v, want draining", obj["reason"])
				}
				break
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after subscribers ended")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v; subscribers must end promptly", elapsed)
	}
	client.CloseIdleConnections()
	ts.Close()
	waitForGoroutines(t, baseline)
}

// TestSubscribeWindowedDelta bounds standing state with the "window" knob:
// r keeps its 3 most recent rows, so a fourth insert evicts r(1,10) and a
// subsequent s insert joins only the resident rows — the delta reflects
// window contents at arrival time, and joins against evicted rows are
// intentionally not produced.
func TestSubscribeWindowedDelta(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{})

	sub := openSubscription(t, client, ts.URL, map[string]any{
		"sql":       "SELECT r.key, s.y FROM r, s WHERE r.a = s.x",
		"subscribe": true,
		"window":    map[string]int{"r": 3},
	})
	defer sub.close()
	snap := 0
	for {
		obj := sub.next(t, 10*time.Second)
		if _, ok := obj["row"].(map[string]any); ok {
			snap++
			continue
		}
		if obj["snapshot"] == true {
			break
		}
	}
	if snap != 3 {
		t.Fatalf("snapshot rows = %d, want 3", snap)
	}
	// Fourth r row: one delta, and r(1,10) falls out of the window.
	if st := postInsert(t, client, ts.URL, "r", [][]any{{4, 10}}); st != http.StatusOK {
		t.Fatalf("insert status %d", st)
	}
	obj := sub.next(t, 10*time.Second)
	row, ok := obj["row"].(map[string]any)
	if !ok || row["r.key"].(float64) != 4 {
		t.Fatalf("expected delta for r.key=4, got %v", obj)
	}
	// New s row with x=10 joins the resident r rows only: r3 and r4, not the
	// evicted r1.
	if st := postInsert(t, client, ts.URL, "s", [][]any{{10, 999}}); st != http.StatusOK {
		t.Fatalf("insert status %d", st)
	}
	keys := map[float64]bool{}
	for i := 0; i < 2; i++ {
		obj := sub.next(t, 10*time.Second)
		row, ok := obj["row"].(map[string]any)
		if !ok || row["s.y"].(float64) != 999 {
			t.Fatalf("expected delta against s.y=999, got %v", obj)
		}
		keys[row["r.key"].(float64)] = true
	}
	if !keys[3] || !keys[4] {
		t.Fatalf("windowed delta joined wrong r rows: %v (want {3,4})", keys)
	}
	select {
	case obj := <-sub.lines:
		t.Fatalf("unexpected extra line (evicted r(1,10) must not join): %v", obj)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestSubscribeColumnarDeltaExact covers the two shapes where a delta round
// on column batches works differently from a scan chunk's path and no other
// subscription test reaches: a filtered subscription, whose new rows pass the
// selection module's column kernels, and a self-join, whose new rows enter
// as one batch per FROM position. Each compares snapshot ∪ deltas with a
// batch run over the final rows, and no delta row is boxed into a tuple.
func TestSubscribeColumnarDeltaExact(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		inserts   []subInsert
	}{
		{"filtered", "SELECT r.key, s.y FROM r, s WHERE r.a = s.x AND r.key > 10", []subInsert{
			{"r", [][]any{{11, 10}, {5, 10}, {12, 20}}},
			{"s", [][]any{{10, 300}, {30, 400}}},
			{"r", [][]any{{13, 30}, {4, 30}, {14, 30}}},
		}},
		{"self-join", "SELECT a.key, b.key FROM r a, r b WHERE a.a = b.a", []subInsert{
			{"r", [][]any{{4, 10}}},
			{"r", [][]any{{5, 20}, {6, 20}}},
			{"s", [][]any{{10, 300}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, client := newTestServer(t, memCatalog(t), Config{})
			sub := openSubscription(t, client, ts.URL, map[string]any{"sql": tc.sql, "subscribe": true})
			defer sub.close()
			var got []string
			for obj := sub.next(t, 10*time.Second); obj["snapshot"] != true; obj = sub.next(t, 10*time.Second) {
				got = append(got, rowKey(t, obj["row"].(map[string]any)))
			}
			boxed := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total")
			for _, in := range tc.inserts {
				if st := postInsert(t, client, ts.URL, in.table, in.rows); st != http.StatusOK {
					t.Fatalf("insert into %s: status %d", in.table, st)
				}
			}
			oracle := postQuery(t, client, ts.URL, map[string]any{"sql": tc.sql})
			var want []string
			for _, row := range oracle.rows {
				want = append(want, rowKey(t, row))
			}
			for len(got) < len(want) {
				got = append(got, rowKey(t, sub.next(t, 10*time.Second)["row"].(map[string]any)))
			}
			select {
			case obj := <-sub.lines:
				t.Fatalf("a line beyond the batch run's %d rows: %v", len(want), obj)
			case <-time.After(200 * time.Millisecond):
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("snapshot ∪ deltas:\n%v\nbatch run:\n%v", got, want)
			}
			if after := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total"); after != boxed {
				t.Errorf("the delta rounds boxed %d rows into tuples, want none", after-boxed)
			}
		})
	}
}

// subInsert is one POST /insert of a subscription test.
type subInsert struct {
	table string
	rows  [][]any
}

// TestInsertInvalidatesPlansAndSharedStems pins INSERT's interaction with
// the caches: the catalog version bump invalidates cached plans (counter
// moves), while the table's idle, resident shared SteM absorbs the new row in
// place on the next query — the extends counter moves, the builds counter
// does not — and that query's join sees the row.
func TestInsertInvalidatesPlansAndSharedStems(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{SharedStems: true})

	for i := 0; i < 2; i++ {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); res.status != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, res.status)
		}
	}
	met := metricsBody(t, client, ts.URL)
	buildsBefore := metricValue(t, met, "stemsd_shared_stem_builds_total")
	if ext := metricValue(t, met, "stemsd_shared_stem_extends_total"); ext != 0 {
		t.Fatalf("extends = %d before any INSERT, want 0", ext)
	}
	invalBefore := metricValue(t, met, "stemsd_plan_cache_invalidations_total")
	if hits := metricValue(t, met, "stemsd_plan_cache_hits_total"); hits == 0 {
		t.Fatal("warmup produced no plan-cache hit; the invalidation assertion below would be vacuous")
	}

	res := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO u VALUES (100, 77)"})
	if res.status != http.StatusOK {
		t.Fatalf("insert status %d", res.status)
	}
	if res.trailer != nil {
		t.Fatalf("INSERT returned a query trailer: %v", res.trailer)
	}
	res2 := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
	if res2.status != http.StatusOK {
		t.Fatalf("post-insert query status %d", res2.status)
	}
	// u(100,77) joins s(10,100), which joins r keys 1 and 3: 5 + 2 rows.
	newRows := 0
	for _, row := range res2.rows {
		if row["u.q"] == float64(77) {
			newRows++
		}
	}
	if len(res2.rows) != 7 || newRows != 2 {
		t.Fatalf("post-insert query saw %d rows, %d of them from the inserted row; want 7 and 2", len(res2.rows), newRows)
	}

	met = metricsBody(t, client, ts.URL)
	if buildsAfter := metricValue(t, met, "stemsd_shared_stem_builds_total"); buildsAfter != buildsBefore {
		t.Fatalf("shared SteM builds %d -> %d; an idle resident state must absorb the INSERT, not be rebuilt", buildsBefore, buildsAfter)
	}
	if ext := metricValue(t, met, "stemsd_shared_stem_extends_total"); ext != 1 {
		t.Fatalf("stemsd_shared_stem_extends_total = %d, want 1 (u's state extended once; r and s did not grow)", ext)
	}
	if invalAfter := metricValue(t, met, "stemsd_plan_cache_invalidations_total"); invalAfter <= invalBefore {
		t.Fatalf("plan invalidations %d -> %d; INSERT must invalidate cached plans", invalBefore, invalAfter)
	}
	if v := metricValue(t, met, "stemsd_inserts_total"); v != 1 {
		t.Fatalf("stemsd_inserts_total = %d, want 1", v)
	}
	if v := metricValue(t, met, "stemsd_inserted_rows_total"); v != 1 {
		t.Fatalf("stemsd_inserted_rows_total = %d, want 1", v)
	}
}

// TestInsertEndpointValidation pins the /insert and INSERT error surfaces.
func TestInsertEndpointValidation(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{})

	if st := postInsert(t, client, ts.URL, "nope", [][]any{{1, 2}}); st != http.StatusBadRequest {
		t.Errorf("unknown table: status %d, want 400", st)
	}
	if st := postInsert(t, client, ts.URL, "r", [][]any{{1}}); st != http.StatusBadRequest {
		t.Errorf("arity mismatch: status %d, want 400", st)
	}
	// A value the engine has no kind for is numbered like a schema violation
	// (below): 1-based row of the request, then 1-based column.
	for _, tc := range []struct {
		name string
		rows [][]any
		want string
	}{
		{"float value", [][]any{{1.5, 2}}, `row 1 of 1 col 1: "1.5" is not an integer`},
		{"bad second row", [][]any{{80, 10}, {81, true}, {82, 10}}, "row 2 of 3 col 2: unsupported JSON value of type bool"},
	} {
		if st, msg := postInsertErr(t, client, ts.URL, "r", tc.rows); st != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d err %q, want 400 mentioning %q", tc.name, st, msg, tc.want)
		}
	}
	if st := postInsert(t, client, ts.URL, "r", nil); st != http.StatusBadRequest {
		t.Errorf("no rows: status %d, want 400", st)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO nope VALUES (1)"}); res.status != http.StatusBadRequest {
		t.Errorf("INSERT into unknown table: status %d, want 400", res.status)
	}
	// A validation error numbers the row within the client's INSERT (1-based),
	// not within the table the rows would have landed in, and rejects the
	// whole statement.
	bad := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO r VALUES (80, 10), (81, 'x'), (82, 10)"})
	if want := `insert into "r": row 2 of 3 col a is `; bad.status != http.StatusBadRequest || !strings.Contains(bad.errLine, want) {
		t.Errorf("wrong-kind row: status %d err %q, want 400 mentioning %q", bad.status, bad.errLine, want)
	}
	// Valid insert via both paths, then verify the rows are queryable.
	if st := postInsert(t, client, ts.URL, "r", [][]any{{70, 10}}); st != http.StatusOK {
		t.Errorf("valid /insert: status %d", st)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO r VALUES (71, 20)"}); res.status != http.StatusOK {
		t.Errorf("valid INSERT: status %d", res.status)
	}
	res := postQuery(t, client, ts.URL, map[string]any{"sql": "SELECT r.key FROM r WHERE r.key >= 70 ORDER BY r.key"})
	if res.status != http.StatusOK || len(res.rows) != 2 {
		t.Fatalf("inserted rows not queryable (or the rejected INSERT left rows behind): status %d rows %v", res.status, res.rows)
	}
}

// TestSubscribeRejections pins the subscription validation surface: every
// case is a 400, and the ones raised after admission (observed) are
// accounted like any other failed query — the error counter and the
// completed-queries ring each move by exactly one — while request-shape
// rejections never take a slot and leave both alone.
func TestSubscribeRejections(t *testing.T) {
	cat := memCatalog(t)
	if err := cat.AddIndex("u", "p", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, ts, client := newTestServer(t, cat, Config{})

	cases := []struct {
		name     string
		body     map[string]any
		observed bool
	}{
		{"order by", map[string]any{"sql": "SELECT r.key FROM r, s WHERE r.a = s.x ORDER BY r.key", "subscribe": true}, true},
		{"limit", map[string]any{"sql": "SELECT r.key FROM r, s WHERE r.a = s.x LIMIT 3", "subscribe": true}, true},
		{"register", map[string]any{"sql": "REGISTER TABLE z FROM 'z.csv'", "subscribe": true}, false},
		{"insert", map[string]any{"sql": "INSERT INTO r VALUES (1, 2)", "subscribe": true}, false},
		{"explain", map[string]any{"sql": threeWayJoin, "subscribe": true, "explain": true}, false},
		{"bad policy", map[string]any{"sql": threeWayJoin, "subscribe": true, "policy": "warp"}, false},
		{"deadline beyond a duration", map[string]any{"sql": "SELECT r.key FROM r, s WHERE r.a = s.x", "subscribe": true, "deadline_ms": int64(18446744073710)}, false},
		{"unknown table", map[string]any{"sql": "SELECT zz.k FROM zz", "subscribe": true}, true},
		{"indexed table", map[string]any{"sql": "SELECT s.x, u.q FROM s, u WHERE s.y = u.p", "subscribe": true}, true},
		{"window without subscribe", map[string]any{"sql": threeWayJoin, "window": map[string]int{"r": 2}}, false},
		{"window unknown table", map[string]any{"sql": threeWayJoin, "subscribe": true, "window": map[string]int{"zz": 2}}, true},
		{"window non-positive", map[string]any{"sql": threeWayJoin, "subscribe": true, "window": map[string]int{"r": 0}}, true},
	}
	const errCounter = `stemsd_queries_total{status="error"}`
	for _, tc := range cases {
		errsBefore := metricGauge(t, client, ts.URL, errCounter)
		ringBefore := len(fetchQueries(t, client, ts.URL, ""))
		if res := postQuery(t, client, ts.URL, tc.body); res.status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, res.status)
		}
		want := 0
		if tc.observed {
			want = 1
		}
		if got := int(metricGauge(t, client, ts.URL, errCounter) - errsBefore); got != want {
			t.Errorf("%s: error counter moved by %d, want %d", tc.name, got, want)
		}
		if got := len(fetchQueries(t, client, ts.URL, "")) - ringBefore; got != want {
			t.Errorf("%s: completed ring grew by %d, want %d", tc.name, got, want)
		}
	}
}
