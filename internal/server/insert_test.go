package server

// POST /insert's body contract and its decoder: the error surface, the 413
// for an oversized body on both endpoints, a differential fuzz target that
// holds the decoder to encoding/json, and the decoder's allocation pin.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tuple"
	"repro/internal/value"
)

// postRaw POSTs body to path and returns the status and the response's
// error message, if any.
func postRaw(t testing.TB, client *http.Client, url, path, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var reply struct {
		Error string `json:"error"`
	}
	b, _ := io.ReadAll(resp.Body)
	json.Unmarshal(b, &reply)
	return resp.StatusCode, reply.Error
}

// insertContract lists bodies whose fate POST /insert pins: the status and a
// fragment of the error message (empty for a 200).
var insertContract = []struct {
	body   string
	status int
	want   string
}{
	{`{"table":"r","rows":[[[1],2]]}`, 400, "row 1 of 1 col 1: unsupported JSON value of type array"},
	{`{"table":"r","rows":[[80,10],[81,{"a":1}]]}`, 400, "row 2 of 2 col 2: unsupported JSON value of type object"},
	{`{"table":"r","rows":[[true,2]]}`, 400, "row 1 of 1 col 1: unsupported JSON value of type bool"},
	{`{"table":"r","rows":[[1.5,2]]}`, 400, `row 1 of 1 col 1: "1.5" is not an integer`},
	{`{"table":"r","rows":[[9223372036854775808,2]]}`, 400, `"9223372036854775808" is not an integer`},
	{`{"table":"r","rows":5}`, 400, `"rows" must be an array of arrays`},
	{`{"table":"r","rows":[5]}`, 400, `"rows" must be an array of arrays`},
	{`{"table":5,"rows":[[1,2]]}`, 400, `"table" must be a string`},
	{`{"rows":[[1,2]]}`, 400, `missing "table" field`},
	{`{"Table":"r","ROWS":[[90,1]]} trailing`, 400, "invalid character 't' after top-level value"},
	{`{"Table":"r","ROWS":[[90,1]]}`, 400, `key "Table" must be spelled "table"`},
	{`{"table":"r","ROWS":[[90,1]]}`, 400, `key "ROWS" must be spelled "rows"`},
	{`{"table":"r","rows":[[90,1]]} trailing`, 400, "invalid character 't' after top-level value"},
	{`{"table":"r","rows":[[90,1]]`, 400, "unexpected end of JSON input"},
	{`[{"table":"r","rows":[[90,1]]}]`, 400, "want a JSON object"},
	// Duplicate keys resolve last-wins, a null table leaves the table as it
	// was, unknown keys are skipped, and whitespace may follow the object.
	{`{"table":"nope","table":"r","table":null,"rows":[[1.5]],"rows":[[93,1]],"extra":{"x":[1,"2",null]}}`, 200, ""},
	{"{\"t\\u0061ble\":\"r\",\"rows\":[[94,1]]}\n\t ", 200, ""},
}

// TestInsertBodyContract pins POST /insert's body contract: JSON kinds are
// named as JSON names them, never as Go types; a malformed "rows" says what
// it must be; keys match exactly; and bytes after the object are refused. No
// refused body inserts anything.
func TestInsertBodyContract(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	for _, tc := range insertContract {
		status, msg := postRaw(t, client, ts.URL, "/insert", tc.body)
		if status != tc.status || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: status %d err %q, want %d mentioning %q", tc.body, status, msg, tc.status, tc.want)
		}
		for _, leak := range []string{"interface {}", "Go struct field", "Go value"} {
			if strings.Contains(msg, leak) {
				t.Errorf("%s: the error %q names a Go type", tc.body, msg)
			}
		}
	}
	res := postQuery(t, client, ts.URL, map[string]any{"sql": "SELECT r.key FROM r WHERE r.key >= 80 ORDER BY r.key"})
	var keys []float64
	for _, row := range res.rows {
		keys = append(keys, row["r.key"].(float64))
	}
	if fmt.Sprint(keys) != "[93 94]" {
		t.Errorf("rows with key ≥ 80 after the contract bodies: %v, want [93 94]", keys)
	}

	// The acknowledgement reads as encoding/json wrote it.
	resp, err := client.Post(ts.URL+"/insert", "application/json", strings.NewReader(`{"table":"r","rows":[[95,1],[96,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ack, _ := io.ReadAll(resp.Body); string(ack) != `{"inserted":2,"table":"r","total_rows":7}`+"\n" {
		t.Errorf("acknowledgement %q", ack)
	}
}

// TestOversizedBodyIs413: a body past the 1 MiB limit is too large, not
// malformed, on both endpoints that read one.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	for path, body := range map[string]string{
		"/insert": `{"table":"r","rows":[` + strings.Repeat(`[1,10],`, 170_000) + `[1,10]]}`,
		"/query":  `{"sql":"SELECT r.key FROM r","pad":"` + strings.Repeat("x", 1<<20) + `"}`,
	} {
		status, msg := postRaw(t, client, ts.URL, path, body)
		if status != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "1 MiB") {
			t.Errorf("%s with a %d-byte body: status %d err %q, want 413 naming the 1 MiB limit", path, len(body), status, msg)
		}
	}
	if st := postInsert(t, client, ts.URL, "r", [][]any{{1, 10}}); st != http.StatusOK {
		t.Errorf("a small insert after the oversized ones: status %d", st)
	}
}

// TestDecodeInsertAllocs pins the decoder's allocations for a 4-row × 4-int
// body: the table name, the row headers and the one value slab.
func TestDecodeInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body := []byte(`{"table":"orders","rows":[[1,2,3,4],[5,6,7,8],[9,10,11,12],[13,14,15,-16]]}`)
	avg := testing.AllocsPerRun(1000, func() {
		if _, rows, err := decodeInsert(body); err != nil || len(rows) != 4 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
	})
	t.Logf("%.1f allocations per 4×4 insert body", avg)
	if avg > 3 {
		t.Errorf("decoding a 4×4 insert makes %.1f allocations, want at most 3", avg)
	}
}

// oracleDecode is how POST /insert decoded its body before it had a decoder
// of its own: encoding/json with UseNumber into [][]any, then a conversion to
// engine rows.
func oracleDecode(body []byte) (string, []tuple.Row, error) {
	var req struct {
		Table string  `json:"table"`
		Rows  [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return "", nil, err
	}
	if req.Table == "" {
		return "", nil, errors.New(`missing "table" field`)
	}
	rows := make([]tuple.Row, len(req.Rows))
	for i, r := range req.Rows {
		row := make(tuple.Row, len(r))
		for j, v := range r {
			switch v := v.(type) {
			case json.Number:
				n, err := strconv.ParseInt(v.String(), 10, 64)
				if err != nil {
					return "", nil, err
				}
				row[j] = value.NewInt(n)
			case string:
				row[j] = value.NewStr(v)
			case nil:
				row[j] = value.NewNull()
			default:
				return "", nil, fmt.Errorf("unsupported JSON value of type %T", v)
			}
		}
		rows[i] = row
	}
	return req.Table, rows, nil
}

// FuzzDecodeInsert holds decodeInsert to oracleDecode. Whatever the decoder
// accepts, the oracle accepts with the same table and rows (so whatever the
// oracle refuses, the decoder refuses); and whatever the oracle accepts, the
// decoder accepts once it is written canonically — exact keys, nothing after
// the object — with the same rows.
func FuzzDecodeInsert(f *testing.F) {
	for _, tc := range insertContract {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"table":"r","rows":[[1,10],[1,10]]}`,
		`{"table":"r","rows":[["a\"b\\c\/d\b\f\n\r\té😀 \ud800x \udc00A"]]}`,
		`{"table":"täb","rows":[["héllo","日本",null,-0,9223372036854775807,-9223372036854775808]]}`,
		`{"table":"r","rows":[null,[],[1.5e3],[-1E-2]]}`,
		`{"rowſ":[[1]],"table":"r"}`,
		"{\"table\":\"r\xff\",\"rows\":[[\"\xe6\x97\",\"\x00\"]]}",
		`  {"x":{"y":[true,false,null,{"z":[{}]}]},"table":"r","rows":[[1]]}`,
		`{"table":"r","rows":[[01]]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		table, rows, err := decodeInsert(body)
		wantTable, wantRows, wantErr := oracleDecode(body)
		if err == nil {
			if wantErr != nil {
				t.Fatalf("decodeInsert accepts %q, which the oracle refuses: %v", body, wantErr)
			}
			sameInsert(t, body, table, rows, wantTable, wantRows)
		}
		if wantErr != nil {
			return
		}
		canon := make([][]any, len(wantRows))
		for i, row := range wantRows {
			canon[i] = make([]any, len(row))
			for j, v := range row {
				switch v.K {
				case value.Int:
					canon[i][j] = v.I
				case value.Str:
					canon[i][j] = v.S
				}
			}
		}
		body, err = json.Marshal(map[string]any{"table": wantTable, "rows": canon})
		if err != nil {
			t.Fatal(err)
		}
		table, rows, err = decodeInsert(body)
		if err != nil {
			t.Fatalf("decodeInsert refuses the canonical body %q: %v", body, err)
		}
		sameInsert(t, body, table, rows, wantTable, wantRows)
	})
}

func sameInsert(t *testing.T, body []byte, table string, rows []tuple.Row, wantTable string, wantRows []tuple.Row) {
	t.Helper()
	if table != wantTable || len(rows) != len(wantRows) {
		t.Fatalf("%q: decoded table %q with %d rows, the oracle %q with %d", body, table, len(rows), wantTable, len(wantRows))
	}
	for i := range rows {
		if fmt.Sprint(rows[i]) != fmt.Sprint(wantRows[i]) || len(rows[i]) != len(wantRows[i]) {
			t.Fatalf("%q: row %d decoded as %v, the oracle's is %v", body, i, rows[i], wantRows[i])
		}
		for j := range rows[i] {
			if rows[i][j] != wantRows[i][j] {
				t.Fatalf("%q: row %d col %d decoded as %#v, the oracle's is %#v", body, i, j, rows[i][j], wantRows[i][j])
			}
		}
	}
}
