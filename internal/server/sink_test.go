// sink_test.go pins the NDJSON sink's two inputs against each other — rows
// encoded straight from a columnar batch and rows encoded from tuples are
// the same bytes — and the serving path's claim to stay on columns: a
// streaming join boxes no row (stemsd_materialized_rows_total does not move),
// band joins included, counts its rows in the trailer, the ring and the trace alike, and a client
// that hangs up still stops the run.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/value"
)

// sinkBatch is a two-table result batch with every value shape the encoder
// meets: negative and large ints, NULLs in both kinds of column, strings that
// need escaping (quote, backslash, control bytes), non-ASCII, a
// dictionary-encoded column that repeats its few strings, and a selection
// vector that drops every fourth row.
func sinkBatch(n int) *flow.ColBatch {
	strs := []string{`plain`, `say "hi"`, `back\slash`, "tab\there", "nl\nand\x01ctl", "héllo, 日本", ""}
	cb := flow.GetColBatch(2)
	cb.Span = tuple.Single(0).With(1)
	cb.EnsureCols(0, 2)
	cb.EnsureCols(1, 2)
	for i := 0; i < n; i++ {
		iv, sv := value.NewInt(int64(i-n/2)*1_000_003), value.NewStr(strs[i%len(strs)])
		if i%5 == 0 {
			iv = value.V{}
		}
		if i%11 == 0 {
			sv = value.V{}
		}
		cb.Tabs[0].Cols[0].AppendV(iv)
		cb.Tabs[0].Cols[1].AppendV(sv)
		cb.Tabs[1].Cols[0].AppendV(value.NewStr(strs[(i/3)%3]))
		cb.Tabs[1].Cols[1].AppendV(value.NewInt(-int64(i)))
	}
	cb.SetRowCount(n)
	sel := cb.EnsureSel()[:0]
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			sel = append(sel, int32(i))
		}
	}
	cb.Sel = sel
	return cb
}

// writeLog is a ResponseWriter that records each Write's size and fails from
// the failAt-th Write on (0 never fails).
type writeLog struct {
	httptest.ResponseRecorder
	sizes  []int
	failAt int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	if w.failAt > 0 && len(w.sizes) >= w.failAt {
		return 0, errors.New("broken pipe")
	}
	return w.ResponseRecorder.Write(p)
}

func TestColumnarSinkIsRowSink(t *testing.T) {
	out := []sql.OutputCol{
		{Name: "a.n", Table: 0, Col: 0},
		{Name: "a.s", Table: 0, Col: 1},
		{Name: `alias "q"\`, Table: 1, Col: 0}, // an aliased label that itself needs escaping
		{Name: "b.m", Table: 1, Col: 1},
		{Name: "a.s", Table: 0, Col: 1}, // a repeated output column
	}
	for _, n := range []int{1, 40, 3000} { // 3000 rows encode past sinkChunk: several writes
		cb := sinkBatch(n)
		var want []byte
		for _, tp := range cb.Materialize() {
			want = appendRowJSON(want, tp, out)
		}
		w := &writeLog{ResponseRecorder: *httptest.NewRecorder()}
		_, cancel := context.WithCancelCause(context.Background())
		q := &live{w: w, req: &QueryRequest{}, cancel: cancel, out: out}
		q.emitCols(cb, 0)
		if got := w.Body.Bytes(); string(got) != string(want) {
			t.Fatalf("n=%d: columnar sink wrote %d bytes, the row encoder %d, or they differ:\n%.300s\n%.300s", n, len(got), len(want), got, want)
		}
		if q.stats.Rows != cb.Rows() || !q.started || len(q.buf) != 0 {
			t.Fatalf("n=%d: rows=%d (want %d) started=%v unwritten=%d", n, q.stats.Rows, cb.Rows(), q.started, len(q.buf))
		}
		wantWrites := 1 + len(want)/sinkChunk
		if len(w.sizes) > wantWrites {
			t.Errorf("n=%d: %d writes for %d bytes, want at most %d (one per batch, split only at sinkChunk)", n, len(w.sizes), len(want), wantWrites)
		}
		for _, sz := range w.sizes {
			if sz > sinkBufCap {
				t.Errorf("n=%d: one write of %d bytes; the sink must not hold more than sinkChunk plus a row", n, sz)
			}
		}
		sc := bufio.NewScanner(strings.NewReader(string(want)))
		for sc.Scan() {
			var obj struct{ Row map[string]any }
			if err := json.Unmarshal(sc.Bytes(), &obj); err != nil || len(obj.Row) != 4 {
				t.Fatalf("line %q: %v, %d members (want 4 distinct labels)", sc.Text(), err, len(obj.Row))
			}
		}
		flow.PutColBatch(cb)
	}
}

// TestColumnarSinkWriteFailureCancels: the first failed Write records the sink
// error, cancels the run with a cause, and ends the batch — no row after it is
// encoded or written, in this batch or the next.
func TestColumnarSinkWriteFailureCancels(t *testing.T) {
	out := []sql.OutputCol{{Name: "a.s", Table: 0, Col: 1}, {Name: "b.m", Table: 1, Col: 1}}
	cb := sinkBatch(6000) // four or five chunks
	defer flow.PutColBatch(cb)
	w := &writeLog{ResponseRecorder: *httptest.NewRecorder(), failAt: 2}
	ctx, cancel := context.WithCancelCause(context.Background())
	q := &live{w: w, req: &QueryRequest{}, cancel: cancel, out: out}
	q.emitCols(cb, 0)
	q.emitCols(cb, 0)
	if len(w.sizes) != 2 || q.sinkErr == nil {
		t.Fatalf("%d writes, sinkErr=%v; want the sink to stop at the failed second write", len(w.sizes), q.sinkErr)
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), "client write failed") {
		t.Fatalf("run not canceled by the failed write: cause %v", cause)
	}
	if rows := strings.Count(w.Body.String(), "\n"); q.stats.Rows != rows {
		t.Errorf("stats count %d rows, the client got %d", q.stats.Rows, rows)
	}
}

// TestStreamingJoinStaysOnColumns: on a private-SteM and on a shared-SteM
// server a warm streaming 3-way join leaves the materialized-rows counter
// where it was, and the trailer, the /queries record and the explain trace
// all count the rows the client read. The same statement under ORDER BY is
// buffered above the eddy: its rows are boxed, every one counted once.
func TestStreamingJoinStaysOnColumns(t *testing.T) {
	for _, shared := range []bool{false, true} {
		srv, ts, client := newTestServer(t, memCatalog(t), Config{SharedStems: shared, CompletedCap: 4})
		postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}) // cold: builds the shared states
		before := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total")
		res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "explain": true})
		if res.status != http.StatusOK || len(res.rows) != 5 {
			t.Fatalf("shared=%v: status %d, %d rows, want 5", shared, res.status, len(res.rows))
		}
		if moved := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total") - before; moved != 0 {
			t.Errorf("shared=%v: a streaming join materialized %d rows; it fell off the column path", shared, moved)
		}
		if rec := fetchQueries(t, client, ts.URL, "")[0]; res.trailer["rows"] != float64(5) || rec.Rows != 5 || rec.SharedStems != shared {
			t.Errorf("shared=%v: trailer %v, ring record rows=%d shared=%v; want 5 rows everywhere", shared, res.trailer, rec.Rows, rec.SharedStems)
		}
		if tr := decodeTrace(t, res.trace); tr.Results != 5 {
			t.Errorf("shared=%v: explain trace counts %d results, the client read 5", shared, tr.Results)
		}

		before = flow.MaterializedRows()
		res = postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin + " ORDER BY u.q DESC"})
		if len(res.rows) != 5 || res.rows[0]["u.q"] != float64(9) || res.trailer["rows"] != float64(5) {
			t.Fatalf("shared=%v: ORDER BY returned %v, trailer %v", shared, res.rows, res.trailer)
		}
		if moved := flow.MaterializedRows() - before; moved != 5 {
			t.Errorf("shared=%v: buffered join materialized %d rows, want its 5 results", shared, moved)
		}
		srv.Shutdown(time.Second)
	}
}

// TestClientHangUpCancelsColumnarStream (run under -race in CI): a client
// reads one row of a 280,000-row result and hangs up. The failed Write must
// cancel the run — the query ends canceled, long before the join could have
// finished — and each exit hands its encode buffer back, which the next
// query's rows (checked line by line) then travel through intact.
func TestClientHangUpCancelsColumnarStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cat := NewCatalog(0, "")
	putSeq(t, cat, "big", 14000) // a = k%7: 2,000 rows a key
	sch, err := schema.NewTable("dim", schema.IntCol("b"), schema.IntCol("v"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := source.NewTable(sch, seqRows(140, 7)) // b = 0..139, v = b%7
	if err != nil {
		t.Fatal(err)
	}
	cat.Put("dim", sql.Source{Data: data, Scan: &source.ScanSpec{}})
	srv, ts, client := newTestServer(t, cat, Config{})
	const wide = "SELECT big.k, dim.b FROM big, dim WHERE big.a = dim.v" // 7 keys × 2,000 × 20

	const rounds = 4
	for i := 1; i <= rounds; i++ {
		resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql":"`+wide+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, `{"row":`) {
			t.Fatalf("round %d: first line %q, %v", i, line, err)
		}
		resp.Body.Close() // unread body: the transport closes the connection
		deadline := time.Now().Add(20 * time.Second)
		for {
			met := metricsBody(t, client, ts.URL)
			if metricValue(t, met, `stemsd_queries_total{status="canceled"}`) == uint64(i) {
				if streamed := metricValue(t, met, "stemsd_rows_streamed_total"); streamed >= uint64(i)*280000 {
					t.Fatalf("round %d: %d rows streamed in all; the hang-up did not stop the run", i, streamed)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: query not canceled after the client hung up:\n%s", i, met)
			}
			time.Sleep(5 * time.Millisecond)
		}
		res := postQuery(t, client, ts.URL, map[string]any{"sql": "SELECT big.k, dim.b FROM big, dim WHERE big.k = dim.b"})
		if res.status != http.StatusOK || len(res.rows) != 140 || res.trailer["rows"] != float64(140) {
			t.Fatalf("round %d: follow-up query: status %d, %d rows, trailer %v", i, res.status, len(res.rows), res.trailer)
		}
	}
	srv.Shutdown(time.Second)
	ts.Close()
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestBandJoinsStayOnColumns: a band J(2) and a J(3) mixing an equi and a
// band join stream from scan to socket without boxing a row — the SteM plans
// a probe on its equi bindings alone, and scans when there are none — and
// return the simulator's multiset.
func TestBandJoinsStayOnColumns(t *testing.T) {
	cat := memCatalog(t)
	_, ts, client := newTestServer(t, cat, Config{})
	for _, q := range []string{
		"SELECT r.key, s.y FROM r, s WHERE r.a < s.x",
		"SELECT r.key, u.q FROM r, s, u WHERE r.a = s.x AND s.y > u.p",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := sql.Bind(st, cat.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.Build(core.Spec{Q: bound.Q, Engine: core.Sim, Policy: "lottery"})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := ex.Run(context.Background(), nil, nil)
		ex.Release()
		if err != nil || len(outs) == 0 {
			t.Fatalf("%s: the simulator returned %d rows (%v); the test is vacuous", q, len(outs), err)
		}
		want := make(map[string]int)
		for _, o := range outs {
			row := make(map[string]any)
			for _, c := range bound.Output {
				switch v := o.T.Comp[c.Table][c.Col]; v.K {
				case value.Int:
					row[c.Name] = float64(v.I)
				case value.Str:
					row[c.Name] = v.S
				default:
					row[c.Name] = nil
				}
			}
			want[rowKey(t, row)]++
		}

		before := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total")
		res := postQuery(t, client, ts.URL, map[string]any{"sql": q})
		if moved := metricValue(t, metricsBody(t, client, ts.URL), "stemsd_materialized_rows_total") - before; moved != 0 {
			t.Errorf("%s: materialized %d rows; the band join fell off the column path", q, moved)
		}
		got := make(map[string]int)
		for _, row := range res.rows {
			got[rowKey(t, row)]++
		}
		if res.status != http.StatusOK || !maps.Equal(got, want) {
			t.Errorf("%s: status %d, rows %v; want the simulator's %v", q, res.status, got, want)
		}
	}
}

// FuzzAppendJSONString holds the NDJSON string encoder to encoding/json: its
// output is valid UTF-8 and valid JSON, and it decodes to the same string as
// json.Marshal's output — an invalid byte included, which both write as
// \ufffd.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"caf\xe9", "", "plain", "q\"b\\c\x00\x1f\x7f", "日本 😀", "\xed\xa0\x80", "\xef\xbf\xbd", "\xe6\x97", "\u2028<&>"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		if !utf8.Valid(got) || !json.Valid(got) {
			t.Fatalf("appendJSONString(%q) = %q: not valid UTF-8 JSON", s, got)
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var gotS, wantS string
		if err := json.Unmarshal(got, &gotS); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantS); err != nil {
			t.Fatal(err)
		}
		if gotS != wantS {
			t.Fatalf("appendJSONString(%q) decodes to %q, encoding/json's to %q", s, gotS, wantS)
		}
	})
}
