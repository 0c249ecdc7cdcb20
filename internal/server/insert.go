// insert.go is the live-ingestion path: POST /insert appends JSON rows to a
// registered table, and INSERT statements arriving through POST /query land
// in the same append. Both go through Catalog.Append, which validates and
// writes only the new rows — past every published length of the table's one
// backing array — and publishes a longer view of it. That is what makes
// ingestion safe under concurrency and O(rows inserted): in-flight queries
// keep the prefix they bound, the catalog version bump lazily invalidates
// cached plans, an idle shared SteM absorbs the new rows on its next attach
// (a referenced one is rebuilt), and standing subscriptions
// observe the same-generation row growth and run a delta round.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/tuple"
	"repro/internal/value"
)

// bufPool holds the buffers request bodies are read into and acks are
// written from. Nothing a decoded insert keeps points into them.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		bodyError(w, err)
		return
	}
	table, rows, err := decodeInsert(buf.Bytes())
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	s.applyInsert(w, r, table, rows)
}

// applyInsert runs the shared tail of both insert paths: the drain barrier
// and admission gate (appends mutate shared state and must not outlive a
// Shutdown drain), the catalog append, and the JSON response.
func (s *Server) applyInsert(w http.ResponseWriter, r *http.Request, table string, rows []tuple.Row) {
	if len(rows) == 0 {
		writeJSONError(w, http.StatusBadRequest, errors.New("no rows to insert"))
		return
	}
	if !s.beginQuery() {
		s.met.reject()
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.queries.Done()
	if err := s.admit(r.Context()); err != nil {
		s.met.reject()
		code := http.StatusTooManyRequests
		if !errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable
		}
		writeJSONError(w, code, err)
		return
	}
	defer s.release()
	total, err := s.cat.Append(table, rows)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	s.met.insert(len(rows))
	w.Header().Set("Content-Type", "application/json")
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	b := strconv.AppendInt(append(buf.AvailableBuffer(), `{"inserted":`...), int64(len(rows)), 10)
	b = appendJSONString(append(b, `,"table":`...), table)
	b = strconv.AppendInt(append(b, `,"total_rows":`...), int64(total), 10)
	buf.Write(append(b, '}', '\n')) // keeps the capacity b grew to
	w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// insertDecoder is a pull decoder over one request body that json.Valid has
// checked, so it only navigates: the syntax, the nesting limit and what may
// follow the object are encoding/json's own rules.
type insertDecoder struct {
	b   []byte
	off int
}

var errRowsShape = errors.New(`bad request body: "rows" must be an array of arrays`)

// decodeInsert decodes a POST /insert body: one JSON object whose "table" is
// a non-empty string and whose "rows" is an array of arrays (or null) of
// integers, strings and nulls. Keys match exactly — one that differs from
// "table" or "rows" only in case is refused — a repeated key takes its last
// value, a null "table" is ignored, and other keys are skipped. A first pass
// checks the shape and counts rows and values; a second fills the rows, which
// share one freshly allocated value slab (never pooled: Catalog.Append keeps
// the rows), with every string copied out of body. Value errors number the
// row and column 1-based, as Catalog.Append does.
func decodeInsert(body []byte) (string, []tuple.Row, error) {
	if !json.Valid(body) {
		var v any
		return "", nil, fmt.Errorf("bad request body: %w", json.Unmarshal(body, &v))
	}
	d := insertDecoder{b: body}
	var table string
	rowsAt, nRows, nVals := -1, 0, 0
	if d.sep() != '{' {
		return "", nil, errors.New("bad request body: want a JSON object")
	}
	err := d.seq(func() error {
		q, esc := d.str()
		key := q[1 : len(q)-1]
		if esc {
			key = []byte(jsonString(q, esc))
		}
		switch c := d.sep(); {
		case string(key) == "table" && c == '"':
			table = jsonString(d.str())
			return nil
		case string(key) == "table" && c != 'n': // null leaves the table as it was
			return errors.New(`bad request body: "table" must be a string`)
		case string(key) == "rows" && c == '[':
			rowsAt, nRows, nVals = d.off, 0, 0
			return d.seq(func() error { // the shape, and the counts
				nRows++
				switch d.b[d.off] {
				case 'n':
					d.skip()
					return nil
				case '[':
					return d.seq(func() error { nVals++; d.skip(); return nil })
				}
				return errRowsShape
			})
		case string(key) == "rows" && c == 'n':
			rowsAt = -1
		case string(key) == "rows":
			return errRowsShape
		case string(key) != "table" && bytes.EqualFold(key, []byte("table")):
			return fmt.Errorf(`bad request body: key %q must be spelled "table"`, key)
		case bytes.EqualFold(key, []byte("rows")):
			return fmt.Errorf(`bad request body: key %q must be spelled "rows"`, key)
		}
		d.skip()
		return nil
	})
	switch {
	case err != nil:
		return "", nil, err
	case table == "":
		return "", nil, errors.New(`missing "table" field`)
	case rowsAt < 0:
		return table, nil, nil
	}
	rows, slab := make([]tuple.Row, 0, nRows), make([]value.V, 0, nVals)
	d.off = rowsAt
	err = d.seq(func() error {
		first := len(slab)
		if d.b[d.off] == 'n' {
			d.skip()
		} else if err := d.seq(func() error {
			v, err := d.value(len(rows)+1, len(slab)-first+1, nRows)
			slab = append(slab, v)
			return err
		}); err != nil {
			return err
		}
		rows = append(rows, slab[first:len(slab):len(slab)])
		return nil
	})
	return table, rows, err
}

// value decodes value j of row i (both 1-based, of n rows).
func (d *insertDecoder) value(i, j, n int) (value.V, error) {
	switch c := d.b[d.off]; c {
	case '"':
		return value.NewStr(jsonString(d.str())), nil
	case 'n':
		d.skip()
		return value.NewNull(), nil
	case 't', 'f', '[', '{':
		kind := map[byte]string{'t': "bool", 'f': "bool", '[': "array", '{': "object"}[c]
		return value.V{}, fmt.Errorf("row %d of %d col %d: unsupported JSON value of type %s", i, n, j, kind)
	}
	start := d.off
	d.skip()
	x, err := strconv.ParseInt(string(d.b[start:d.off]), 10, 64)
	if err != nil {
		return value.V{}, fmt.Errorf("row %d of %d col %d: %q is not an integer (values are integers, strings, or null)", i, n, j, d.b[start:d.off])
	}
	return value.NewInt(x), nil
}

// seq calls elem at each element of the array, or member of the object, that
// starts at d, and moves past it; it stops at elem's first error.
func (d *insertDecoder) seq(elem func() error) error {
	for d.off++; d.sep() != ']' && d.b[d.off] != '}'; {
		if err := elem(); err != nil {
			return err
		}
	}
	d.off++
	return nil
}

// sep moves past whitespace, commas and colons — in a checked body they need
// no parsing — and returns the byte it stops at.
func (d *insertDecoder) sep() byte {
	for d.off < len(d.b) && strings.IndexByte(" \t\n\r,:", d.b[d.off]) >= 0 {
		d.off++
	}
	return d.b[d.off]
}

// skip moves past the value that starts at d. (To seq, an object's keys and
// values are just elements.)
func (d *insertDecoder) skip() {
	switch d.b[d.off] {
	case '"':
		d.str()
	case '[', '{':
		d.seq(func() error { d.skip(); return nil })
	default: // a number, true, false or null
		for d.off++; strings.IndexByte(",]} \t\n\r", d.b[d.off]) < 0; d.off++ {
		}
	}
}

// str moves past the string that starts at d and returns it with its quotes,
// and whether it holds an escape.
func (d *insertDecoder) str() (quoted []byte, esc bool) {
	start := d.off
	for d.off++; d.b[d.off] != '"'; d.off++ {
		if d.b[d.off] == '\\' {
			esc = true
			d.off++
		}
	}
	d.off++
	return d.b[start:d.off], esc
}

// jsonString returns a quoted string as encoding/json decodes it, copied out
// of the body: escapes resolved, invalid UTF-8 replaced by U+FFFD.
func jsonString(quoted []byte, esc bool) string {
	if !esc && utf8.Valid(quoted) {
		return string(quoted[1 : len(quoted)-1])
	}
	var s string
	_ = json.Unmarshal(quoted, &s) // cannot fail: json.Valid checked the body
	return s
}
