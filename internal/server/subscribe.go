// subscribe.go serves standing queries: a POST /query with "subscribe":true
// binds a SELECT once, runs it to quiescence over the tables' current rows,
// and then — instead of winding the engine down — keeps the execution
// handle, and with it every SteM dictionary, resident on the open response.
// Each INSERT into a subscribed table wakes the loop, which feeds the new
// rows through the same eddy — as column batches, one set per FROM position
// the table fills — and streams only the new join results: the delta.
//
// Delta exactness rests on the SteM timestamp constraint: a probe matches
// only strictly-older builds, so each join result is produced exactly once,
// by its last-arriving component — the union of the snapshot and every
// delta equals a batch run over the final table state, with no result
// duplicated and none missed (TestSubscribeDeltaExact).
//
// Lifecycle: the subscription records each FROM table's catalog generation
// at bind. Appends keep the generation and grow the rows — a delta round.
// A REGISTER replacing the table bumps the generation — the new table has
// no delta relationship to the old one, so the subscription ends cleanly
// with reason "table replaced". Admission, client disconnect, session
// DELETE, an explicit deadline, server drain and the observed exit are the
// request prologue and epilogue bounded queries use (runQuery and serve in
// exec.go); drain additionally closes a
// dedicated channel so subscriptions (which never finish on their own)
// stop immediately instead of holding the drain for its full timeout.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// subTable tracks one subscribed catalog table: the FROM positions it feeds
// (several for a self-join), the generation the subscription bound, and how
// many of its rows have been fed through the eddy.
type subTable struct {
	source    string
	positions []int
	gen       uint64
	seen      int
}

// subscribe runs one admitted standing query on the open response stream
// and returns the reason it ended, or the error that ended it. It keeps its
// own bind — it needs SnapshotSubscribe's generations, which the
// version-keyed plan cache cannot give it — but its engine comes from
// core.Build and its rounds from the handle's Run and RunDelta.
func (s *Server) subscribe(q *live) (reason string, err error) {
	st := q.st
	// Bind against a snapshot taken atomically with the generations: a
	// mutation after this point is either in the snapshot or wakes the loop.
	snap, gens := s.cat.SnapshotSubscribe()
	bound, err := sql.Bind(st, snap)
	if err != nil {
		return "", userError{err}
	}
	if len(bound.OrderBy) > 0 || bound.Limit >= 0 {
		return "", userError{errors.New("subscriptions stream indefinitely; ORDER BY and LIMIT are not supported")}
	}
	// One subTable per distinct source, covering every FROM position it
	// feeds. Index AMs are rejected: an index answers probes from the frozen
	// copy of the table it was built over, which would silently miss
	// inserted rows.
	var tabs []*subTable
	byName := make(map[string]*subTable)
	for i, ref := range st.From {
		src, _ := snap.Source(ref.Source)
		if len(src.Indexes) > 0 {
			return "", userError{fmt.Errorf("table %q has index access methods; subscriptions require scan-only tables", ref.Source)}
		}
		tb := byName[ref.Source]
		if tb == nil {
			tb = &subTable{source: ref.Source, gen: gens[ref.Source], seen: len(src.Data.Rows)}
			byName[ref.Source] = tb
			tabs = append(tabs, tb)
		}
		tb.positions = append(tb.positions, i)
	}

	// Subscriptions run untraced: a collector would cost allocations on every
	// delta round.
	spec := s.spec(q, bound.Q)
	if len(q.req.Window) > 0 {
		// Window keys name tables as the query sees them (aliases included),
		// mapping onto FROM positions.
		spec.Windows = make([]int, len(bound.Q.Tables))
		byPos := make(map[string]int, len(bound.Q.Tables))
		for i, tb := range bound.Q.Tables {
			byPos[tb.Name] = i
		}
		for name, n := range q.req.Window {
			i, ok := byPos[name]
			if !ok {
				return "", userError{fmt.Errorf("window table %q is not in the FROM clause", name)}
			}
			if n <= 0 {
				return "", userError{fmt.Errorf("window for table %q must be positive, got %d", name, n)}
			}
			spec.Windows[i] = n
		}
	}
	ex, err := core.Build(spec)
	if err != nil {
		return "", userError{err}
	}
	defer ex.Release()
	// Whichever way the subscription ends, its record books the engine work
	// of every round.
	defer q.takeStats(ex)

	s.subs.Add(1)
	defer s.subs.Add(-1)
	if lg := s.cfg.Logger; lg != nil {
		lg.Debug("subscription opened", slog.Uint64("query_id", q.id),
			slog.String("session", q.req.Session), slog.String("sql", q.text()))
	}

	// Round 0: the snapshot.
	q.out = bound.Output
	emit, emitCols := q.emit, q.emitCols // bound once: a method value per round is an allocation
	if _, err := ex.Run(q.ctx, emit, emitCols); err != nil {
		return "", err
	}
	fmt.Fprintf(q.w, `{"snapshot":true,"id":%d,"rows":%d}`+"\n", q.id, q.stats.Rows)
	q.started = true
	q.flush()

	// The standing loop: wake on catalog changes, feed new rows, go back to
	// sleep. The Changed channel is taken BEFORE the state is read, so a
	// mutation between read and select closes the already-held channel and
	// the loop re-reads — no change can be missed.
	delta := make([][]tuple.Row, len(bound.Q.Tables))
	for {
		changed := s.cat.Changed()
		grew := false
		for _, tb := range tabs {
			src, gen, ok := s.cat.SourceGen(tb.source)
			if !ok || gen != tb.gen {
				return fmt.Sprintf("table %q replaced", tb.source), nil
			}
			rows := src.Data.Rows
			for _, pos := range tb.positions {
				delta[pos] = rows[tb.seen:]
			}
			grew = grew || len(rows) > tb.seen
			tb.seen = len(rows)
		}
		if grew {
			// Delta round: the new rows build with fresh timestamps from the
			// router's persistent counter, so they join against every
			// strictly-older build and nothing else. The published rows are
			// immutable, so the SteMs keep them by reference.
			if _, err := ex.RunDelta(q.ctx, delta, emit, emitCols); err != nil {
				return "", err
			}
			q.flush()
			continue // appends may have landed during the round
		}
		select {
		case <-q.ctx.Done():
			return "", context.Cause(q.ctx)
		case <-s.drainCh:
			return "draining", nil
		case <-changed:
		}
	}
}
