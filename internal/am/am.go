// Package am implements Access Modules (Section 2.1.3): each AM encapsulates
// one access method — a scan or an index — over a data source. Scans accept
// only the special seed tuple and stream out the whole source, paced by the
// source's ScanSpec. Index AMs accept probe tuples, asynchronously return
// the matching rows after the source's lookup latency, bounce the probe
// tuple back, and finish each probe with an End-Of-Transmission (EOT) tuple
// encoding the probing predicate.
package am

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// Config parameterizes an access module.
type Config struct {
	// Q is the enclosing query and AMIndex the position of this AM's
	// declaration in Q.AMs.
	Q       *query.Q
	AMIndex int
	// DispatchCost is the local service time to issue a request (the remote
	// latency itself comes from the source specs).
	DispatchCost clock.Duration
	// ApplySelections pushes the query's selections on this AM's table into
	// the AM, per Table 1 ("the AM applies the others after the lookup").
	// When false, selection predicates are left to selection modules so the
	// eddy can order them adaptively.
	ApplySelections bool
}

// Stats are cumulative AM counters.
type Stats struct {
	SeedsServed uint64
	Probes      uint64 // index lookups issued to the remote source
	DedupProbes uint64 // probes suppressed because the key was already fetched
	RowsOut     uint64
	EOTsOut     uint64
}

// AM is one access module.
type AM struct {
	cfg   Config
	decl  query.AMDecl
	index *source.Index // nil for scans
	name  string

	mu    sync.Mutex
	stats Stats
	// fetched holds the index keys already looked up (or in flight), keyed
	// by row hash with equality verification, so probe dedup allocates no
	// key material.
	fetched map[uint64][]tuple.Row
}

// New builds an access module, constructing the source-side index for index
// AMs.
func New(cfg Config) (*AM, error) {
	decl := cfg.Q.AMs[cfg.AMIndex]
	a := &AM{cfg: cfg, decl: decl}
	if decl.Name != "" {
		a.name = decl.Name
	} else {
		a.name = fmt.Sprintf("AM(%s/%s)", cfg.Q.Tables[decl.Table].Name, decl.Kind)
	}
	if decl.Kind == query.Index {
		ix, err := source.BuildIndex(decl.Data, decl.IndexSpec)
		if err != nil {
			return nil, err
		}
		a.index = ix
		a.fetched = make(map[uint64][]tuple.Row)
	}
	return a, nil
}

// Name implements flow.Module.
func (a *AM) Name() string { return a.name }

// Parallel implements flow.Module: index AMs issue asynchronous lookups with
// the source's concurrency bound; scans are single-server.
func (a *AM) Parallel() int {
	if a.decl.Kind == query.Index {
		return a.decl.IndexSpec.Parallel
	}
	return 1
}

// Table returns the query position of the table this AM serves.
func (a *AM) Table() int { return a.decl.Table }

// Kind returns the access method kind.
func (a *AM) Kind() query.AMKind { return a.decl.Kind }

// Stats returns a snapshot of the AM's counters.
func (a *AM) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Reset clears the AM's run state — counters and the probe-dedup cache — so
// a pooled router can run the same query again. The source-side index built
// at construction is immutable and is kept. Must not be called while a run
// is in progress.
func (a *AM) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
	clear(a.fetched)
}

// Process implements flow.Module.
func (a *AM) Process(t *tuple.Tuple, now clock.Time) ([]flow.Emission, clock.Duration) {
	return a.process(t, nil)
}

// process is Process appending the emissions to out.
func (a *AM) process(t *tuple.Tuple, out []flow.Emission) ([]flow.Emission, clock.Duration) {
	if t.Seed {
		if a.decl.Kind != query.Scan {
			panic(fmt.Sprintf("am: seed tuple routed to index AM %s", a.name))
		}
		return a.scan(out), a.cfg.DispatchCost
	}
	if a.decl.Kind != query.Index {
		panic(fmt.Sprintf("am: probe tuple routed to scan AM %s", a.name))
	}
	out, cost := a.probe(t, out)
	return out, a.cfg.DispatchCost + cost
}

// The AM intentionally has no native ProcessBatch: engines batch it through
// the flow.Lift shim's sequential loop. Holding a.mu across a batch would
// serialize the CPU side of lookups that index AMs with Parallel > 1 rely
// on overlapping, so the lock stays fine-grained inside probe/scan and a
// native batch path would have nothing left to amortize.

// ProcessColBatch implements flow.ColModule. Seeds for an unpaced scan
// produce columnar batches directly from the source rows — the entry point
// of the columnar hot path. Everything else (paced scans, whose per-row
// delivery times differ; index probes, whose dedup and latency are per-key)
// goes through the per-tuple path, materializing columnar probers first, into
// b.Tuples, so the engine can tell a bounced probe from a match.
func (a *AM) ProcessColBatch(b *flow.Batch, now clock.Time, rows []flow.Emission, cols []flow.ColEmission) ([]flow.Emission, []flow.ColEmission, clock.Duration) {
	var total clock.Duration
	if b.Col != nil {
		b.Tuples = b.Col.Materialize()
	}
	for _, t := range b.Tuples {
		cost := a.cfg.DispatchCost
		if a.colScannable(t) {
			rows, cols = a.scanCols(rows, cols)
		} else {
			rows, cost = a.process(t, rows)
		}
		total += cost
	}
	return rows, cols, total
}

// colScannable reports whether t is a seed for a scan whose delivery is
// unpaced (no start delay, inter-arrival, or stalls). Paced scans keep the
// row representation: their semantics are per-row delivery times, which a
// batch cannot carry.
func (a *AM) colScannable(t *tuple.Tuple) bool {
	return t.Seed && a.decl.Kind == query.Scan && a.decl.ScanSpec.Unpaced()
}

// scanCols streams the source out as columnar batches appended to cols,
// followed by the scan's row-representation EOT appended to rows (EOT tuples
// always travel as rows; the engine delivers the columnar batches first,
// preserving scan order). Pushed-down selections are applied with the
// vectorized kernels against the selection vector, exactly like
// passesSelections/markSelections on the row path.
func (a *AM) scanCols(rows []flow.Emission, cols []flow.ColEmission) ([]flow.Emission, []flow.ColEmission) {
	q := a.cfg.Q
	n := len(q.Tables)
	tbl := a.decl.Table
	src := a.decl.Data.Rows
	arity := a.decl.Data.Schema.Arity()
	sels := q.SelectionsOn(tbl)
	var done tuple.PredSet
	if a.cfg.ApplySelections {
		for _, p := range sels {
			done = done.With(p.ID)
		}
	}
	rowsOut := uint64(0)
	for lo := 0; lo < len(src); lo += flow.ChunkRows {
		hi := lo + flow.ChunkRows
		if hi > len(src) {
			hi = len(src)
		}
		cb := flow.GetColBatch(n)
		cb.Span = tuple.Single(tbl)
		cb.Done = done
		// The table's published rows are immutable (the row path aliases them
		// too), so the batch can offer them to whoever stores rows.
		cb.LoadRows(tbl, arity, src[lo:hi])
		live := cb.Rows()
		if a.cfg.ApplySelections {
			for _, p := range sels {
				live = pred.FilterColConst(cb, p)
				if live == 0 {
					break
				}
			}
		}
		if live == 0 {
			flow.PutColBatch(cb)
			continue
		}
		rowsOut += uint64(live)
		cols = append(cols, flow.ColEmission{B: cb})
	}
	eot := tuple.NewEOT(n, tbl, a.eotRow(nil, nil), nil)
	rows = append(rows, flow.Emit(eot))
	a.mu.Lock()
	a.stats.SeedsServed++
	a.stats.RowsOut += rowsOut
	a.stats.EOTsOut++
	a.mu.Unlock()
	return rows, cols
}

// scan streams out the whole source, each row delayed per the ScanSpec, and
// ends with a full EOT ("in the case of a scan AM, the predicate is simply
// true"), appended to out. The seed tuple is consumed.
func (a *AM) scan(out []flow.Emission) []flow.Emission {
	n := len(a.cfg.Q.Tables)
	rows := a.decl.Data.Rows
	times, eotAt := a.decl.ScanSpec.RowTimes(len(rows))
	out = slices.Grow(out, len(rows)+1)
	rowsOut := uint64(0)
	for i, r := range rows {
		if a.cfg.ApplySelections && !a.passesSelections(r) {
			continue
		}
		s := tuple.NewSingleton(n, a.decl.Table, r)
		if a.cfg.ApplySelections {
			a.markSelections(s)
		}
		out = append(out, flow.EmitAfter(s, times[i]))
		rowsOut++
	}
	eot := tuple.NewEOT(n, a.decl.Table, a.eotRow(nil, nil), nil)
	out = append(out, flow.EmitAfter(eot, eotAt))
	a.mu.Lock()
	a.stats.SeedsServed++
	a.stats.RowsOut += rowsOut
	a.stats.EOTsOut++
	a.mu.Unlock()
	return out
}

// probe serves an index lookup: it resolves the bind values from the probe
// tuple via the query's equality join predicates, looks them up, filters the
// matches against every other predicate evaluable on (probe ∪ match), and
// emits — after the source latency — the match singletons, the EOT tuple for
// this binding, and the bounced-back probe ("AMs asynchronously bounce back
// each probe tuple to the eddy").
//
// The latency is charged as service time: the AM's Parallel() servers model
// the source's capacity for outstanding asynchronous lookups, so with
// Parallel=1 lookups serialize at the source (the paper's bottleneck: "the
// speed at which the S index can handle R probes") while excess probes queue
// at the AM — not in front of anyone else's cache lookups. The emissions are
// appended to out.
func (a *AM) probe(t *tuple.Tuple, out []flow.Emission) ([]flow.Emission, clock.Duration) {
	q := a.cfg.Q
	bind, ok := q.BindValues(t, a.cfg.AMIndex)
	if !ok {
		panic(fmt.Sprintf("am: unbindable probe %s routed to %s", t, a.name))
	}
	vals := bind[0]
	lat := a.decl.IndexSpec.Latency

	// Rendezvous suppression: if this key has already been fetched (or a
	// lookup is in flight), the matches and EOT are — or will be — in the
	// SteM, where the probe tuple rendezvouses with them (Section 3.3). A
	// duplicate remote lookup would only produce set-semantics duplicates,
	// which is why Figure 7(ii) shows near-identical probe counts for the
	// SteM and index-join architectures.
	key := vals.Hash64()
	a.mu.Lock()
	dup := false
	for _, r := range a.fetched[key] {
		if r.Equal(vals) {
			dup = true
			break
		}
	}
	if dup {
		a.stats.DedupProbes++
		a.mu.Unlock()
		t.AMProbed = true
		return append(out, flow.Emit(t)), 0
	}
	a.fetched[key] = append(a.fetched[key], vals)
	a.stats.Probes++
	a.mu.Unlock()

	n := len(q.Tables)
	rowsOut := uint64(0)
	// scratch recycles the concatenation used only to filter matches, so
	// non-qualifying rows cost no tuple allocation.
	var scratch *tuple.Tuple
	for _, r := range a.index.Lookup(vals) {
		cat := t.ConcatRowInto(scratch, a.decl.Table, r, tuple.InfTS)
		scratch = cat
		if !a.matchOK(cat) {
			continue
		}
		s := tuple.NewSingleton(n, a.decl.Table, r)
		if a.cfg.ApplySelections {
			a.markSelections(s)
		}
		out = append(out, flow.Emit(s))
		rowsOut++
	}
	keyCols := a.decl.IndexSpec.KeyCols
	eot := tuple.NewEOT(n, a.decl.Table, a.eotRow(keyCols, vals), keyCols)
	out = append(out, flow.Emit(eot))
	a.mu.Lock()
	a.stats.RowsOut += rowsOut
	a.stats.EOTsOut++
	a.mu.Unlock()

	t.AMProbed = true
	out = append(out, flow.Emit(t))
	return out, lat
}

// matchOK verifies every query predicate evaluable on the concatenation of
// the probe and a candidate match (Table 1's match definition). Done bits
// are not recorded here: matches flow out as singletons and predicates are
// re-verified (and marked) when they concatenate inside SteMs.
func (a *AM) matchOK(cat *tuple.Tuple) bool {
	for _, p := range a.cfg.Q.Preds {
		if !p.ApplicableTo(cat.Span) || cat.Done.Has(p.ID) {
			continue
		}
		if p.IsJoin() {
			if !p.Eval(cat) {
				return false
			}
		} else if p.Left.Table == a.decl.Table {
			if !p.Eval(cat) {
				return false
			}
		}
	}
	return true
}

// passesSelections applies the table's selection predicates to a raw row.
func (a *AM) passesSelections(r tuple.Row) bool {
	probe := tuple.NewSingleton(len(a.cfg.Q.Tables), a.decl.Table, r)
	for _, p := range a.cfg.Q.SelectionsOn(a.decl.Table) {
		if !p.Eval(probe) {
			return false
		}
	}
	return true
}

// markSelections records the table's selections as passed in the singleton's
// done bits.
func (a *AM) markSelections(s *tuple.Tuple) {
	for _, p := range a.cfg.Q.SelectionsOn(a.decl.Table) {
		s.Done = s.Done.With(p.ID)
	}
}

// eotRow builds the EOT tuple's row: bound key columns carry the looked-up
// values, every other field the EOT marker.
func (a *AM) eotRow(keyCols []int, vals tuple.Row) tuple.Row {
	arity := a.cfg.Q.Tables[a.decl.Table].Arity()
	row := make(tuple.Row, arity)
	for i := range row {
		row[i] = value.NewEOT()
	}
	for i, c := range keyCols {
		row[c] = vals[i]
	}
	return row
}
