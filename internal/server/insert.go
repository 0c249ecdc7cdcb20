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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/tuple"
	"repro/internal/value"
)

// InsertRequest is the POST /insert body. Row values are JSON integers,
// strings, or null, matching the engine's value kinds; each row must match
// the table's schema.
type InsertRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.UseNumber()
	var req InsertRequest
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Table == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New(`missing "table" field`))
		return
	}
	rows, err := rowsFromJSON(req.Rows)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	s.applyInsert(w, r, req.Table, rows)
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
	json.NewEncoder(w).Encode(map[string]any{"table": table, "inserted": len(rows), "total_rows": total})
}

// rowsFromJSON converts UseNumber-decoded JSON rows to engine rows. Only
// integers, strings, and null map onto the engine's value kinds; anything
// else (floats included) is the client's error. Schema validation — arity
// and per-column kinds, reported by 1-based position in the request — is
// Catalog.Append's job.
func rowsFromJSON(in [][]any) ([]tuple.Row, error) {
	rows := make([]tuple.Row, len(in))
	for i, r := range in {
		row := make(tuple.Row, len(r))
		for j, v := range r {
			switch v := v.(type) {
			case json.Number:
				n, err := strconv.ParseInt(v.String(), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("row %d col %d: %q is not an integer (values are integers, strings, or null)", i, j, v.String())
				}
				row[j] = value.NewInt(n)
			case string:
				row[j] = value.NewStr(v)
			case nil:
				row[j] = value.NewNull()
			default:
				return nil, fmt.Errorf("row %d col %d: unsupported JSON value of type %T", i, j, v)
			}
		}
		rows[i] = row
	}
	return rows, nil
}
