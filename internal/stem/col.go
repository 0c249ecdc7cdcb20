// col.go implements the SteM's columnar fast path: builds that insert a
// whole column-vector batch under one lock acquisition with slab-materialized
// storage rows, and probes that walk HashDict buckets directly from
// dictionary-encoded key vectors — no candidate list, no lookup key, and no
// concatenated tuple is allocated per row. Output matches are gathered into a
// pooled output ColBatch.
//
// The fast path is gated by colBatchOK: configurations whose semantics are
// per-row (windowed eviction, index-AM completeness metadata, non-equi probe
// bindings) fall back to materializing the batch and running the exact row
// path, so every SteM behaviour is preserved bit-for-bit where it matters — the columnar path is an
// optimization of the common symmetric-hash configuration, not a second
// semantics. A SteM attached to catalog-owned shared state (shared.go) is on
// the fast path: its probe is the same bucket walk with the TimeStamp window
// left out, because the sealed state is the window.
package stem

import (
	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/tuple"
	"repro/internal/value"
)

// colBind is one equi-join binding of a probe batch into this SteM's table:
// stored column tCol is constrained to equal the probe batch's (table, col)
// column.
type colBind struct {
	tCol int
	src  colRef
}

// colRef locates one column of one table.
type colRef struct {
	table, col int
}

// isColBuild reports whether a columnar batch is a build batch for this SteM:
// unbuilt singletons of its table (mirroring processLocked's dispatch;
// EOTs and seeds never travel columnar).
func (s *SteM) isColBuild(cb *flow.ColBatch) bool {
	return cb.Span == tuple.Single(s.cfg.Table) && !cb.Built.Has(s.cfg.Table)
}

// colBatchOK gates the columnar fast path for one batch. Builds qualify in
// the plain symmetric-hash configuration; probes additionally require pure
// equi-join bindings and no index AM on the table — index EOT completeness is
// per bound value, so batches of probes could split between consumed and
// bounced in ways the uniform header cannot express (and the completeness
// index can grow concurrently). Windowed SteMs evict per row. Everything
// gated materializes to rows — as does a build batch sent to an attached
// SteM, so that it reaches the row path's panic.
func (s *SteM) colBatchOK(cb *flow.ColBatch) bool {
	if s.cfg.Window > 0 {
		return false
	}
	if s.isColBuild(cb) {
		return s.shared == nil
	}
	if s.cfg.Q.HasIndexAM(s.cfg.Table) {
		return false
	}
	preds := s.cfg.Q.JoinPredsConnecting(cb.Span, s.cfg.Table)
	if len(preds) == 0 {
		return false
	}
	for _, p := range preds {
		if _, _, op, ok := p.BindSide(cb.Span, s.cfg.Table); !ok || op != pred.Eq {
			return false
		}
	}
	return true
}

// ProcessColBatch implements flow.ColModule: row payloads and gated
// configurations run the exact row path (materializing columnar rows first,
// into b.Tuples, so the engine can tell the inputs that bounce back from new
// tuples); qualifying columnar batches run the vectorized build/probe.
func (s *SteM) ProcessColBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, []flow.ColEmission, clock.Duration) {
	cb := b.Col
	if cb != nil && !s.colBatchOK(cb) {
		b.Tuples, cb = cb.Materialize(), nil
	}
	if cb == nil {
		out, cost := s.ProcessBatch(b, now)
		return out, nil, cost
	}
	if s.isColBuild(cb) {
		return s.buildCols(cb)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probeCols(cb)
}

// buildCols stores every live row of a build batch under one lock
// acquisition. A batch that still carries the source rows its columns were
// transposed from (flow.ColTable.Src — an AM's scan of an immutable table)
// stores those rows by reference, as the row path does; any other batch has
// its rows slab-materialized, one backing array for the whole batch.
// Duplicates are dropped from the selection vector (consumed, per Section
// 3.2's set semantics), and the surviving batch bounces back in place with
// its Built bit and per-row build timestamps set: the zero-copy analogue of
// the per-tuple build bounce.
func (s *SteM) buildCols(cb *flow.ColBatch) ([]flow.Emission, []flow.ColEmission, clock.Duration) {
	table := s.cfg.Table
	tab := &cb.Tabs[table]
	arity := len(tab.Cols)
	live := cb.Rows()
	cost := clock.Duration(live) * s.cfg.BuildCost

	s.mu.Lock()
	hd := s.dict
	src := tab.Src
	var slab []value.V
	if len(src) != cb.N() {
		src = nil
		slab = make([]value.V, live*arity)
	}
	sel := cb.EnsureSel()
	out := sel[:0]
	for _, i32 := range sel {
		i := int(i32)
		h := value.HashSeed
		for c := 0; c < arity; c++ {
			h = tab.Cols[c].HashValInto(h, i)
		}
		if hd.containsVec(h, tab, i) {
			s.stats.DupBuilds++
			continue // duplicate from a competitive AM: consumed
		}
		var row tuple.Row
		if src != nil {
			row = src[i]
		} else {
			row, slab = slab[:arity:arity], slab[arity:]
			for c := 0; c < arity; c++ {
				row[c] = tab.Cols[c].ValueAt(i)
			}
		}
		ts := s.cfg.TS.Next()
		hd.insertHashed(row, ts, h)
		cb.SetTS(table, i, ts)
		s.stats.Builds++
		out = append(out, i32)
	}
	s.mu.Unlock()

	cb.Sel = out
	if len(out) == 0 {
		return nil, nil, cost // every row was a duplicate: batch consumed
	}
	cb.Built = cb.Built.With(table)
	return nil, []flow.ColEmission{{B: cb}}, cost
}

// probeCols probes every live row of a batch against the dictionary (s.mu
// held): per row, the narrowest hash bucket among the equi-binding columns is
// walked directly, candidates are verified (hash-with-verify plus every newly
// applicable predicate) and gathered into a pooled output batch, and the TimeStamp / LastMatchTimeStamp windows are
// enforced per stored entry — except by an attached SteM, whose sealed state
// is exactly the probe's window and always complete (shared.go; its
// dictionary is only read here). The bounce decision is batch-uniform
// (colBatchOK excluded per-row completeness); bounced batches split by
// matched/unmatched so the HasMatches header stays truthful for policies.
func (s *SteM) probeCols(cb *flow.ColBatch) ([]flow.Emission, []flow.ColEmission, clock.Duration) {
	q := s.cfg.Q
	table := s.cfg.Table
	scr, stats, hd := &s.scr, &s.stats, s.dict
	live := cb.Rows()
	stats.Probes += uint64(live)

	preds, ok := scr.predCache[cb.Span]
	if !ok {
		preds = q.JoinPredsConnecting(cb.Span, table)
		scr.predCache[cb.Span] = preds
	}
	// Bind plan: stored column <- probe-side column, all equi (gated).
	plan := scr.colPlan[:0]
	for _, p := range preds {
		tCol, from, _, _ := p.BindSide(cb.Span, table)
		plan = append(plan, colBind{tCol: tCol, src: colRef{from.Table, from.Col}})
	}
	scr.colPlan = plan
	// Dictionary index position per plan entry.
	di := scr.colDi[:0]
	for _, pl := range plan {
		di = append(di, hd.colIndex(pl.tCol))
	}
	scr.colDi = di

	outSpan := cb.Span.With(table)
	// Predicates to verify per candidate: everything newly applicable on the
	// concatenation (the row path's verify walks the same set per tuple).
	verify := scr.colVerify[:0]
	var outDone tuple.PredSet
	for _, p := range q.Preds {
		if cb.Done.Has(p.ID) || !p.ApplicableTo(outSpan) {
			continue
		}
		verify = append(verify, p)
		outDone = outDone.With(p.ID)
	}
	scr.colVerify = verify

	if cap(scr.colMatched) < live {
		scr.colMatched = make([]bool, live)
	}
	matched := scr.colMatched[:live]
	for k := range matched {
		matched[k] = false
	}

	lastMatch := cb.LastMatchTS
	var outCB *flow.ColBatch
	totalMatches := 0
	anyMatched, anyUnmatched := false, false

	for k := 0; k < live; k++ {
		i := cb.RowAt(k)
		probeTS := cb.RowTS(i)
		rowMatches := 0
		// Pick the narrowest bucket among the bind columns (the row
		// path's Candidates heuristic), hashing key vectors via the
		// dictionary-encoded per-code tables.
		best := -1
		var bucket cursor
		for pi, pl := range plan {
			if di[pi] < 0 {
				continue
			}
			b := hd.bucket(di[pi], cb.Tabs[pl.src.table].Cols[pl.src.col].Hash64At(i))
			if best < 0 || b.Len() < bucket.Len() {
				best, bucket = pi, b
			}
		}
		var entries []Entry
		keyCol := -1
		var keyVal value.V
		if best < 0 {
			entries = hd.all() // no indexed bind column: full scan
		} else {
			keyCol = plan[best].tCol
			keyVal = cb.Value(plan[best].src.table, plan[best].src.col, i)
		}
		for pi := 0; ; pi++ {
			var e *Entry
			if best >= 0 {
				var ok bool
				if e, ok = bucket.Next(); !ok {
					break
				}
				// Hash-with-verify: the bucket may hold colliding values.
				if !e.Row[keyCol].Equal(keyVal) {
					continue
				}
			} else {
				if pi >= len(entries) {
					break
				}
				e = &entries[pi]
			}
			// TimeStamp constraint + repeated-probe guard (§3.5).
			if s.shared == nil && (e.TS >= probeTS || e.TS <= lastMatch) {
				continue
			}
			okRow := true
			for _, p := range verify {
				if !s.evalColCandidate(p, cb, i, e.Row) {
					okRow = false
					break
				}
			}
			if !okRow {
				continue
			}
			if outCB == nil {
				outCB = s.newProbeOutput(cb, outSpan, outDone)
			}
			s.appendMatch(outCB, cb, i, e)
			rowMatches++
		}
		if rowMatches > 0 {
			matched[k] = true
			anyMatched = true
			stats.Matches += uint64(rowMatches)
			totalMatches += rowMatches
		} else {
			anyUnmatched = true
		}
	}

	var cols []flow.ColEmission
	if outCB != nil {
		cols = append(cols, flow.ColEmission{B: outCB})
	}

	// Bounce decision — batch-uniform: completeness is the full (scan) EOT
	// only, and safety-via-scan depends only on header state.
	bounced := 0
	if !s.fullEOT && s.shared == nil {
		safeViaScan := q.HasScanAM(table) && cb.Built.Contains(cb.Span)
		if !safeViaScan {
			maxTS := hd.MaxTS()
			bounced = live
			stats.ProbeBounces += uint64(live)
			if anyMatched && anyUnmatched {
				// Split so HasMatches stays truthful per batch: matched rows
				// move to a pooled sibling, unmatched rows keep the input
				// batch's storage via the selection vector.
				mb := flow.GetColBatch(cb.NTables)
				mb.CopyHeaderFrom(cb)
				sel := cb.EnsureSel()
				keep := sel[:0]
				for k, m := range matched {
					if m {
						mb.AppendRowFrom(cb, int(sel[k]))
					} else {
						keep = append(keep, sel[k])
					}
				}
				cb.Sel = keep
				for _, b := range []*flow.ColBatch{cb, mb} {
					b.PriorProber = true
					b.ProbeTable = table
					b.LastMatchTS = maxTS
				}
				cb.HasMatches = false
				mb.HasMatches = true
				cols = append(cols, flow.ColEmission{B: mb}, flow.ColEmission{B: cb})
			} else {
				cb.PriorProber = true
				cb.ProbeTable = table
				cb.HasMatches = anyMatched
				cb.LastMatchTS = maxTS
				cols = append(cols, flow.ColEmission{B: cb})
			}
		}
	}

	cost := clock.Duration(live)*s.cfg.ProbeCost + clock.Duration(totalMatches+bounced)*s.cfg.PerMatchCost
	return nil, cols, cost
}

// newProbeOutput prepares a pooled output batch for probe matches: the
// concatenated span, the merged done bits (every newly applicable predicate
// is verified before a row is appended), and the Built bit of the stored
// table — exactly ConcatRowInto's state, with routing state reset.
func (s *SteM) newProbeOutput(cb *flow.ColBatch, outSpan tuple.TableSet, outDone tuple.PredSet) *flow.ColBatch {
	out := flow.GetColBatch(cb.NTables)
	out.Span = outSpan
	out.Done = cb.Done.Union(outDone)
	out.Built = cb.Built.With(s.cfg.Table)
	for t := range cb.Span.Each {
		out.EnsureCols(t, len(cb.Tabs[t].Cols))
	}
	out.EnsureCols(s.cfg.Table, s.cfg.Q.Tables[s.cfg.Table].Arity())
	return out
}

// appendMatch gathers the concatenation of probe row i and stored entry e
// onto the output batch: probe-side columns and timestamps copy over, the
// stored row fills this SteM's table with its build timestamp — 0 for a shared
// entry, whose timestamp is another counter's (probeLocked's catTS).
func (s *SteM) appendMatch(out *flow.ColBatch, cb *flow.ColBatch, i int, e *Entry) {
	n := out.N()
	for t := range cb.Span.Each {
		stab := &cb.Tabs[t]
		for c := range stab.Cols {
			out.Tabs[t].Cols[c].AppendV(stab.Cols[c].ValueAt(i))
		}
		if ts := cb.TSAt(t, i); ts != tuple.InfTS {
			out.SetTS(t, n, ts)
		}
	}
	ttab := &out.Tabs[s.cfg.Table]
	for c, v := range e.Row {
		ttab.Cols[c].AppendV(v)
	}
	ts := e.TS
	if s.shared != nil {
		ts = 0
	}
	out.SetTS(s.cfg.Table, n, ts)
	out.SetRowCount(n + 1)
}

// evalColCandidate evaluates predicate p on the virtual concatenation of
// probe row i and a stored row of this SteM's table, reproducing P.Eval on
// the materialized concatenation (EOT markers never satisfy a predicate).
func (s *SteM) evalColCandidate(p pred.P, cb *flow.ColBatch, i int, row tuple.Row) bool {
	table := s.cfg.Table
	refsTable := p.Left.Table == table || (p.IsJoin() && p.Right.Table == table)
	if !refsTable {
		return pred.EvalCol(p, cb, i)
	}
	if p.IsJoin() {
		return pred.EvalColRow(p, cb, i, table, row)
	}
	// Selection on the stored table, pushed late by the eddy.
	return pred.EvalRowSel(p, row)
}
