// sharedstems_test.go is the adversarial harness for catalog-owned shared
// SteMs: server-level result equivalence against a private-state server,
// a -race lifecycle storm mixing concurrent attach/detach with REGISTER
// invalidation and session cancellation mid-probe, capacity eviction, and
// the INSERT rules — an idle state absorbs the new rows in place, while a
// referenced one is rebuilt and an older snapshot runs private — and the
// REGISTER rule: an older generation runs private too.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// refSnapshot returns the per-entry refcounts.
func (m *sharedStems) refSnapshot() map[sharedKey]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[sharedKey]int, len(m.entries))
	for k, e := range m.entries {
		out[k] = e.refs
	}
	return out
}

// debugString renders the manager's state for error messages.
func (m *sharedStems) debugString() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for k, e := range m.entries {
		fmt.Fprintf(&b, "%v refs=%d ", k, e.refs)
	}
	return b.String()
}

// metricValue extracts one un-labeled metric's value from an exposition body.
func metricValue(t *testing.T, met, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(met, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var n uint64
			fmt.Sscanf(rest, "%d", &n)
			return n
		}
	}
	t.Fatalf("metrics missing %q", name)
	return 0
}

// metricGauge scrapes one numeric metric value.
func metricGauge(t *testing.T, client *http.Client, url, name string) float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestServerSharedStemsAgree is the server-level half of the tentpole's
// equivalence claim: 8 concurrent queries on a shared-SteM server must
// return exactly the rows a private-state server returns, while building
// each shared table's state exactly once.
func TestServerSharedStemsAgree(t *testing.T) {
	_, pts, pclient := newTestServer(t, memCatalog(t), Config{})
	want := rowMultiset(postQuery(t, pclient, pts.URL, map[string]any{"sql": threeWayJoin}).rows)
	if len(want) == 0 {
		t.Fatal("private-state oracle produced no rows")
	}

	srv, ts, client := newTestServer(t, memCatalog(t), Config{
		MaxInFlight: 8,
		SharedStems: true,
	})
	const concurrent = 8
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
			if res.status != http.StatusOK || res.errLine != "" {
				t.Errorf("query %d: status=%d err=%q", g, res.status, res.errLine)
				return
			}
			if got := rowMultiset(res.rows); !sameMultiset(want, got) {
				t.Errorf("query %d diverges from private-state server: %d distinct rows, want %d", g, len(got), len(want))
			}
		}(g)
	}
	wg.Wait()

	// memCatalog's s (2 rows) is the driver; r and u attach, so exactly two
	// builds serve all 8 queries (2 attachments each).
	met := metricsBody(t, client, ts.URL)
	if builds := metricValue(t, met, "stemsd_shared_stem_builds_total"); builds != 2 {
		t.Errorf("shared builds = %d, want exactly 2 (one per attached table): %s", builds, srv.shared.debugString())
	}
	attached := metricValue(t, met, "stemsd_shared_stem_attached_total")
	if attached != 2*concurrent {
		t.Errorf("attachments = %d, want %d", attached, 2*concurrent)
	}
	if detached := metricValue(t, met, "stemsd_shared_stem_detaches_total"); detached != attached {
		t.Errorf("detaches = %d, want %d (idle server must hold no references)", detached, attached)
	}
	if resident := metricValue(t, met, "stemsd_shared_stem_resident_bytes"); resident == 0 {
		t.Error("resident-bytes gauge is 0 with two live shared states")
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("entry %v still holds %d references after all queries finished", k, refs)
		}
	}
}

// TestSharedStemsStormLifecycle is the refcount/lifecycle storm (run under
// -race in CI): 8 workers hammer a join whose big side is shared, while one
// goroutine re-REGISTERs that table (generation change → rebuild, with
// in-flight probes finishing on the old state) and another cancels
// session-scoped queries mid-probe. Afterward: zero leaked goroutines, every
// refcount at zero, and attach/detach counters balanced.
func TestSharedStemsStormLifecycle(t *testing.T) {
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

	// Oracle: a private-state server over the same CSVs.
	ocat := NewCatalog(0, "")
	for _, n := range []string{"r", "s"} {
		if _, err := ocat.RegisterLocalCSV(n, filepath.Join(dir, n+".csv"), nil); err != nil {
			t.Fatal(err)
		}
	}
	osrv, ots, oclient := newTestServer(t, ocat, Config{})
	want := rowMultiset(postQuery(t, oclient, ots.URL, map[string]any{"sql": q}).rows)
	if len(want) != 400 {
		t.Fatalf("oracle produced %d distinct rows, want 400", len(want))
	}

	cat := NewCatalog(0, dir)
	for _, n := range []string{"r", "s"} {
		if _, err := cat.RegisterLocalCSV(n, filepath.Join(dir, n+".csv"), nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, ts, client := newTestServer(t, cat, Config{
		MaxInFlight: 8,
		QueueDepth:  256,
		SharedStems: true,
	})

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Catalog churner: re-REGISTER r with identical content. Every pass
	// moves the catalog generation, so the next attach rebuilds while
	// in-flight probes finish on the old state.
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

	// Session canceller: cancel a query mid-probe; its release must still
	// run exactly once (the refcount balance below catches double or missed
	// releases), and completed-first runs must match the oracle.
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
				res := postQuery(t, client, ts.URL, map[string]any{"sql": q, "session": session})
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

	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				res := postQuery(t, client, ts.URL, map[string]any{"sql": q})
				if res.status != http.StatusOK {
					t.Errorf("worker %d run %d: status=%d err=%q", w, i, res.status, res.errLine)
					return
				}
				if got := rowMultiset(res.rows); !sameMultiset(want, got) {
					t.Errorf("worker %d run %d: rows diverge from private-state server (%d distinct, want %d)",
						w, i, len(got), len(want))
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	churn.Wait()

	builds, attaches, detaches, _ := srv.shared.counts()
	if builds < 2 {
		t.Errorf("builds = %d, want ≥ 2 (REGISTER churn must have forced rebuilds)", builds)
	}
	if attaches != detaches {
		t.Errorf("attaches = %d but detaches = %d; a reference leaked or double-released", attaches, detaches)
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("entry %v still holds %d references after the storm", k, refs)
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

// TestSharedStemsEviction pins the capacity path: a 1-byte cap means every
// entry is over budget, so attaching a second table's state evicts the
// first's as soon as it is idle — but never while referenced — and the
// resident-bytes gauge gives the evicted state's footprint back.
func TestSharedStemsEviction(t *testing.T) {
	srv, ts, client := newTestServer(t, memCatalog(t), Config{
		SharedStems:     true,
		SharedStemBytes: 1,
	})
	q1 := "SELECT r.key FROM r, s WHERE r.a = s.x"
	q2 := "SELECT u.q FROM s, u WHERE s.y = u.p"
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": q1}); res.status != http.StatusOK {
		t.Fatalf("q1: status=%d err=%q", res.status, res.errLine)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": q2}); res.status != http.StatusOK {
		t.Fatalf("q2: status=%d err=%q", res.status, res.errLine)
	}
	_, _, _, evictions := srv.shared.counts()
	if evictions == 0 {
		t.Errorf("evictions = 0, want > 0 under a 1-byte cap: %s", srv.shared.debugString())
	}
	if n := srv.shared.entryCount(); n > 1 {
		t.Errorf("entryCount = %d, want ≤ 1 under a 1-byte cap", n)
	}
	// Eviction must not have hurt correctness: q1 again rebuilds and agrees.
	res := postQuery(t, client, ts.URL, map[string]any{"sql": q1})
	if res.status != http.StatusOK {
		t.Fatalf("q1 after eviction: status=%d err=%q", res.status, res.errLine)
	}
	if len(res.rows) != 3 {
		t.Errorf("q1 after eviction returned %d rows, want 3", len(res.rows))
	}
	// The three-way join references r's and u's states at once, so both
	// survive it; q1 then attaches r alone and evicts the idle u.
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); res.status != http.StatusOK {
		t.Fatalf("three-way join: status=%d err=%q", res.status, res.errLine)
	}
	both := metricGauge(t, client, ts.URL, "stemsd_shared_stem_resident_bytes")
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": q1}); res.status != http.StatusOK {
		t.Fatalf("q1 after the three-way join: status=%d err=%q", res.status, res.errLine)
	}
	if _, _, _, after := srv.shared.counts(); after <= evictions {
		t.Errorf("evictions stayed at %d; q1 must have evicted u's idle state", after)
	}
	if one := metricGauge(t, client, ts.URL, "stemsd_shared_stem_resident_bytes"); one <= 0 || one >= both {
		t.Errorf("resident gauge read %v with r and u live and %v after u's eviction; want it to fall and stay positive", both, one)
	}
	srv.Shutdown(time.Second)
}

// TestSharedStemsExtendAgree interleaves INSERTs (into both attached tables)
// with SELECTs on a shared-SteM server and a private-state server: every
// read returns the same multiset on both, and on the shared server each
// table's state is built exactly once — every INSERT after that is absorbed
// by an extension.
func TestSharedStemsExtendAgree(t *testing.T) {
	_, pts, pclient := newTestServer(t, memCatalog(t), Config{})
	srv, ts, client := newTestServer(t, memCatalog(t), Config{SharedStems: true})

	const cycles = 12
	wantExtends := uint64(0)
	for i := 0; i <= cycles; i++ {
		if i > 0 {
			// r.a = 10|20 joins s; u.p = 100|200 joins s.y. Odd cycles grow
			// r, even ones u, every fourth both (two extensions, one read).
			var inserts []string
			if i%2 == 1 || i%4 == 0 {
				inserts = append(inserts, fmt.Sprintf("INSERT INTO r VALUES (%d, %d), (%d, 30)", 100+i, 10*(1+i%2), 200+i))
			}
			if i%2 == 0 {
				inserts = append(inserts, fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", 100*(1+i%3%2), 50+i))
			}
			for _, ins := range inserts {
				for _, c := range []struct {
					client *http.Client
					url    string
				}{{pclient, pts.URL}, {client, ts.URL}} {
					if res := postQuery(t, c.client, c.url, map[string]any{"sql": ins}); res.status != http.StatusOK {
						t.Fatalf("cycle %d: %q: status %d err %q", i, ins, res.status, res.errLine)
					}
				}
			}
			wantExtends += uint64(len(inserts))
		}
		want := postQuery(t, pclient, pts.URL, map[string]any{"sql": threeWayJoin})
		got := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
		if want.status != http.StatusOK || got.status != http.StatusOK {
			t.Fatalf("cycle %d: status private=%d shared=%d", i, want.status, got.status)
		}
		if !sameMultiset(rowMultiset(want.rows), rowMultiset(got.rows)) {
			t.Fatalf("cycle %d: shared server returned %d rows, private server %d, or they differ", i, len(got.rows), len(want.rows))
		}
		if i == cycles && len(got.rows) <= 5 {
			t.Fatalf("final join has %d rows; the inserted rows never joined", len(got.rows))
		}
	}
	met := metricsBody(t, client, ts.URL)
	if builds := metricValue(t, met, "stemsd_shared_stem_builds_total"); builds != 2 {
		t.Errorf("shared builds = %d after %d insert/read cycles, want 2 (r and u, once each): %s", builds, cycles, srv.shared.debugString())
	}
	if ext := metricValue(t, met, "stemsd_shared_stem_extends_total"); ext != wantExtends {
		t.Errorf("shared extends = %d, want %d (one per INSERT into an attached table)", ext, wantExtends)
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("entry %v still holds %d references", k, refs)
		}
	}
}

// pacedDriverCatalog registers big(k,a) — 400 rows, unpaced, the table that
// gets shared — and dim(b,v), the 10-row driver whose paced scan keeps a
// join in flight for about 300 ms.
func pacedDriverCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog(0, "")
	putSeq(t, cat, "big", 400)
	sch, err := schema.NewTable("dim", schema.IntCol("b"), schema.IntCol("v"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := source.NewTable(sch, seqRows(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	cat.Put("dim", sql.Source{Data: data, Scan: &source.ScanSpec{InterArrival: 30 * clock.Second}})
	return cat
}

// TestSharedStemsInFlightReaderForcesRebuild (run under -race in CI): while a
// reader is attached to big's state, an INSERT into big followed by a second
// reader must not touch that state — the second reader gets a rebuild, the
// first finishes on exactly the rows it bound, and the old state is torn down
// when it releases.
func TestSharedStemsInFlightReaderForcesRebuild(t *testing.T) {
	srv, ts, client := newTestServer(t, pacedDriverCatalog(t), Config{SharedStems: true})
	// big.a = i%7 over 400 rows; dim.b = 0..9: keys 0..6 match, 400 rows.
	const q = "SELECT big.k, dim.v FROM big, dim WHERE big.a = dim.b"

	first := make(chan ndjsonResult, 1)
	go func() { first <- postQuery(t, client, ts.URL, map[string]any{"sql": q}) }()
	deadline := time.Now().Add(5 * time.Second)
	for attached := false; !attached; {
		for _, refs := range srv.shared.refSnapshot() {
			attached = attached || refs == 1
		}
		if time.Now().After(deadline) {
			t.Fatal("the first reader never attached")
		}
		time.Sleep(time.Millisecond)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO big VALUES (1000, 3), (1001, 3)"}); res.status != http.StatusOK {
		t.Fatalf("insert: status %d err %q", res.status, res.errLine)
	}
	second := postQuery(t, client, ts.URL, map[string]any{"sql": q})
	if second.status != http.StatusOK || len(second.rows) != 402 {
		t.Fatalf("second reader: status %d, %d rows, want 402 (err %q)", second.status, len(second.rows), second.errLine)
	}
	if res := <-first; res.status != http.StatusOK || len(res.rows) != 400 {
		t.Fatalf("in-flight reader: status %d, %d rows, want the 400 it bound (err %q)", res.status, len(res.rows), res.errLine)
	}
	builds, attaches, detaches, _ := srv.shared.counts()
	if builds != 2 || srv.shared.extends.Load() != 0 {
		t.Errorf("builds = %d, extends = %d; a referenced state must be rebuilt (2, 0), never extended", builds, srv.shared.extends.Load())
	}
	if attaches != detaches || srv.shared.entryCount() != 1 {
		t.Errorf("attaches %d, detaches %d, %d live entries; want balanced and 1: %s", attaches, detaches, srv.shared.entryCount(), srv.shared.debugString())
	}
}

// TestSharedStemsOlderSnapshotRunsPrivate: a reader that took its catalog
// snapshot before an INSERT, but reaches attach after another reader has
// extended the state past it, gets no attachment at all — planAttach falls
// back to all-private — and so joins exactly the rows of its own snapshot.
func TestSharedStemsOlderSnapshotRunsPrivate(t *testing.T) {
	cat := memCatalog(t)
	srv, ts, client := newTestServer(t, cat, Config{SharedStems: true})
	st, err := sql.Parse(threeWayJoin)
	if err != nil {
		t.Fatal(err)
	}
	old := cat.Snapshot()
	bound, err := sql.Bind(st, old)
	if err != nil {
		t.Fatal(err)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 5 {
		t.Fatalf("warm-up join: %d rows, want 5", len(res.rows))
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "INSERT INTO u VALUES (100, 77)"}); res.status != http.StatusOK {
		t.Fatalf("insert: status %d", res.status)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 7 {
		t.Fatalf("post-insert join: %d rows, want 7", len(res.rows))
	}
	if ext := srv.shared.extends.Load(); ext != 1 {
		t.Fatalf("extends = %d, want 1; the state never moved past the old snapshot", ext)
	}

	plan, err := srv.shared.planAttach(st, bound.Q, old)
	if err != nil || plan != nil {
		t.Fatalf("planAttach on the pre-insert snapshot = %v, %v; want the nil all-private plan", plan, err)
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("the refused attach left %d references on %v", refs, k)
		}
	}
	_, attaches, detaches, _ := srv.shared.counts()
	if attaches != detaches {
		t.Errorf("attaches %d, detaches %d after the refused attach", attaches, detaches)
	}
	ex, err := core.Build(core.Spec{Q: bound.Q, Engine: core.Concurrent, Policy: "lottery"})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Release()
	outs, err := ex.Run(context.Background(), nil, nil)
	if err != nil || len(outs) != 5 {
		t.Errorf("the old snapshot's private run returned %d rows (%v), want its own 5", len(outs), err)
	}
	// And the state it was refused is still the current one.
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 7 {
		t.Errorf("join after the refused attach: %d rows, want 7", len(res.rows))
	}
	if builds, _, _, _ := srv.shared.counts(); builds != 2 {
		t.Errorf("builds = %d, want 2; refusing an older snapshot must not disturb the live state", builds)
	}
}

// TestSharedStemsOlderGenerationRunsPrivate: a reader whose snapshot predates
// a REGISTER gets the nil all-private plan, as an older-rows snapshot does,
// and leaves the newer generation's state in place — the next current read
// builds nothing.
func TestSharedStemsOlderGenerationRunsPrivate(t *testing.T) {
	cat := memCatalog(t)
	srv, ts, client := newTestServer(t, cat, Config{SharedStems: true})
	st, err := sql.Parse(threeWayJoin)
	if err != nil {
		t.Fatal(err)
	}
	old := cat.Snapshot()
	bound, err := sql.Bind(st, old)
	if err != nil {
		t.Fatal(err)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 5 {
		t.Fatalf("warm-up join: %d rows, want 5", len(res.rows))
	}
	sch, err := schema.NewTable("u", schema.IntCol("p"), schema.IntCol("q"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := source.NewTable(sch, []tuple.Row{intRow(100, 7), intRow(200, 8), intRow(100, 9), intRow(200, 10)})
	if err != nil {
		t.Fatal(err)
	}
	cat.Put("u", sql.Source{Data: data, Scan: &source.ScanSpec{}})
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 6 {
		t.Fatalf("post-REGISTER join: %d rows, want 6", len(res.rows))
	}
	builds, _, _, _ := srv.shared.counts()

	plan, err := srv.shared.planAttach(st, bound.Q, old)
	if err != nil || plan != nil {
		plan.release()
		t.Fatalf("planAttach on the pre-REGISTER snapshot = %v, %v; want the nil all-private plan", plan, err)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); len(res.rows) != 6 {
		t.Errorf("join after the refused attach: %d rows, want 6", len(res.rows))
	}
	if after, _, _, _ := srv.shared.counts(); after != builds {
		t.Errorf("builds %d -> %d; the stale attach evicted the current state", builds, after)
	}
	_, gen, _ := cat.SourceGen("u")
	srv.shared.mu.Lock()
	defer srv.shared.mu.Unlock()
	for k, e := range srv.shared.entries {
		if k.table == "u" && e.gen != gen {
			t.Errorf("u's entry holds generation %d, want the newest, %d", e.gen, gen)
		}
	}
}
