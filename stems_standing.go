// stems_standing.go is the facade's continuous-query surface. A Standing
// query is Run with the wind-down removed: Open executes an initial round
// over the tables' current rows exactly like Run, but keeps the execution
// handle (internal/core) — and therefore every SteM dictionary — resident.
// Insert then feeds newly arrived rows through the same dataflow and returns
// only the results of that round — the delta.
//
// Delta rounds compose exactly because of the SteM timestamp constraint
// (paper Table 2, rule P1): a probe matches only strictly-older builds, so
// every join result is produced exactly once, by its last-arriving
// component. Inserted rows take fresh timestamps from the router's
// persistent counter when they build, making a row inserted in round 3
// indistinguishable from one the scan would have delivered last in a batch
// run over the final table state — the delta results across all rounds are
// multiset-equal to that batch re-run (see TestStandingJoinDeltaExact).
package stems

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/source"
	"repro/internal/tuple"
)

// Standing is an open continuous query: the execution handle of its initial
// round stays resident, and each Insert runs one delta round against the SteM
// state every earlier round built. Methods are safe for concurrent use, but
// rounds are serialized — an Insert blocks until the previous round reaches
// quiescence, which is what makes "the delta of this insert" well defined.
//
// Windowed tables (Options.Window) bound the resident state: their SteMs
// evict the oldest rows past the window, so a standing query over unbounded
// arrivals holds O(window) rows per table. Probes that fall outside the
// window are dropped, not bounced — delta results then reflect the window
// contents at arrival time, as a streaming join should.
type Standing struct {
	mu     sync.Mutex
	iq     *query.Q
	ex     *core.Exec
	ctx    context.Context
	hook   func(*tuple.Tuple, clock.Time) // Options.OnResult, adapted; may be nil
	closed bool
}

// Open validates the query, runs the initial round under opts, and returns
// the resident standing query together with the initial results. The caller
// owns the Standing and must Close it when done.
//
// Most of Options applies unchanged (engine, policy, seed, batching, windows,
// OnResult, Context). Options that presume a run winds down — or state that
// cannot accept late builds — are rejected: SkipBuildTable (pure probers
// build no state for later rounds to join against), Shared attachments
// (sealed, immutable), Deadline, OnPartial, and Explain. Every access method
// must be a scan: an index AM answers probes from a frozen copy of its table,
// which an Insert would silently miss.
func (q *Query) Open(opts Options) (*Standing, *Result, error) {
	iq, err := q.Build()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case opts.SkipBuildTable != "":
		return nil, nil, fmt.Errorf("stems: SkipBuildTable is not supported for standing queries")
	case len(opts.Shared) > 0:
		return nil, nil, fmt.Errorf("stems: Shared state is not supported for standing queries")
	case opts.Deadline != 0:
		return nil, nil, fmt.Errorf("stems: Deadline is not supported for standing queries")
	case opts.OnPartial != nil:
		return nil, nil, fmt.Errorf("stems: OnPartial is not supported for standing queries")
	case opts.Explain:
		return nil, nil, fmt.Errorf("stems: Explain is not supported for standing queries")
	}
	for _, am := range q.ams {
		if am.Kind != query.Scan {
			return nil, nil, fmt.Errorf("stems: standing queries require scan access methods (table %q has an index AM)", q.tables[am.Table].Name)
		}
	}
	spec, err := q.spec(iq, opts)
	if err != nil {
		return nil, nil, err
	}
	ex, err := core.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	st := &Standing{iq: iq, ex: ex, ctx: opts.Context, hook: rowHook(iq, opts.OnResult)}
	outs, err := ex.Run(st.ctx, st.hook, nil)
	if err != nil {
		return nil, nil, err
	}
	return st, newResult(iq, ex.Stats(), outs), nil
}

// Insert runs one delta round: the rows join against everything that arrived
// before them, and the returned Result holds exactly the new join results —
// no earlier result is re-emitted. Rows are validated against the table's
// schema. A row equal to one the SteM already stores is consumed by the
// engine's set-semantics dedup and contributes nothing, on both the standing
// and the batch side. Result.Stats counters are cumulative over the standing
// query's lifetime (they read the resident router's totals).
//
// An error (cancellation included) leaves the SteM state mid-round, so it
// closes the standing query; subsequent Inserts fail.
func (s *Standing) Insert(table string, rows [][]int64) (*Result, error) {
	vrows := make([][]Value, len(rows))
	for i, r := range rows {
		vr := make([]Value, len(r))
		for j, v := range r {
			vr[j] = Int(v)
		}
		vrows[i] = vr
	}
	return s.InsertValues(table, vrows)
}

// InsertValues is Insert with explicit Value rows (for string columns).
func (s *Standing) InsertValues(table string, rows [][]Value) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("stems: Insert on closed standing query")
	}
	var ti = -1
	for i, t := range s.iq.Tables {
		if t.Name == table {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("stems: Insert into unknown table %q", table)
	}
	trows := make([]tuple.Row, len(rows))
	for i, r := range rows {
		trows[i] = tuple.Row(r)
	}
	if _, err := source.NewTable(s.iq.Tables[ti], trows); err != nil {
		return nil, err
	}
	delta := make([][]tuple.Row, len(s.iq.Tables))
	delta[ti] = trows

	outs, err := s.ex.RunDelta(s.ctx, delta, s.hook, nil)
	if err != nil {
		s.closed = true
		return nil, err
	}
	return newResult(s.iq, s.ex.Stats(), outs), nil
}

// Close releases the standing query. The resident state is plain memory, so
// Close only bars further Inserts. Idempotent.
func (s *Standing) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
