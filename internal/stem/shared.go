// shared.go implements catalog-owned shared SteM state: the paper's pitch
// that SteMs "encapsulate the state of a join so it can be shared" extends
// across queries, not just across the competing access methods of one query.
// A SharedState is the result of building a SteM over a registered table's
// rows once — per-shard hash dictionaries plus optional spill segments for
// rows beyond a byte budget — that any number of concurrent queries attach
// to with probe-only SteM handles (Config.Shared) instead of rebuilding. It
// is sealed *between* extensions: like the paper's SteM it keeps taking build
// tuples for as long as its table grows (Extend), but only while no query is
// attached.
//
// Correctness of attaching hinges on a completeness/timestamp-window
// argument:
//
//   - The state is complete and sealed whenever a query is attached: every
//     stored row carries a build timestamp in [1, HighWater] issued by the
//     state's own counter, and no row is added, evicted, or mutated while a
//     handle exists. An attaching query therefore probes against the exact
//     window "TS ≤ HighWater", which is the whole state.
//   - Extend continues the same insertion loop past the old HighWater, in
//     place. The owner (the server's sharedStems) calls it only while the
//     state is unreferenced, behind the gate new attachers wait on, and only
//     when the state is and stays fully resident: a spilled state's build-time
//     duplicate map is gone, so it is rebuilt instead. The owner also refuses
//     to attach a query whose catalog snapshot is older than the rows the
//     state has absorbed — that query runs on private SteMs — so no query
//     ever sees a row newer than the snapshot it bound. Probes are not
//     bounded by a high-water mark; extension under concurrent readers would
//     need that.
//   - An attached SteM is always complete (the shared build subsumes a full
//     scan EOT), so probes are never bounced and the query's
//     LastMatchTimeStamp bookkeeping never sees a shared timestamp.
//   - Concatenations from shared entries carry component timestamp 0, so the
//     shared counter's values never mix with the attaching query's own
//     counter (the two are incomparable). The query-local TimeStamp rule
//     still orders the query's private builds exactly as before.
//   - Shared dictionaries are read lock-free: they are immutable while
//     attached, and HashDict.Candidates only reads. Per-query scratch
//     (lookups, probe caches, stats) stays in the attaching SteM handle.
//
// The result is multiset-identical to a private-state run of the same query
// (TestSharedStemsAgree): the shared build applies the same set-semantics
// duplicate elimination a private build does, and predicate verification at
// concatenation is unchanged. Building rows[:k] and extending with rows[k:]
// stores exactly what building rows does (TestSharedExtendAgrees).
package stem

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/tuple"
)

// SharedConfig parameterizes a shared build.
type SharedConfig struct {
	// KeyCols are the columns the dictionaries index — the attaching
	// queries' join columns on this table, sorted ascending (stem.JoinCols
	// order). Must be non-empty.
	KeyCols []int
	// Shards splits the state into hash partitions on KeyCols[0], rounded up
	// to a power of two; 0 or 1 keeps a single store. Attached SteMs adopt
	// this shard count regardless of their own Config.Shards.
	Shards int
	// BudgetBytes bounds the resident footprint (RowFootprint accounting);
	// rows beyond it are written to sealed per-shard spill segments and
	// matched by synchronous segment reads at probe time. 0 keeps everything
	// resident.
	BudgetBytes int64
	// SpillDir is the directory spill segments are created under (a private
	// subdirectory per state); empty uses the system temp dir. Only used
	// when BudgetBytes > 0.
	SpillDir string
}

// sharedPart is one sealed spill partition of one shard.
type sharedPart struct {
	f         *os.File
	size      int64
	rows      int
	footprint int64
}

// SharedState is one shared SteM build. Immutable except inside Extend; safe
// for concurrent probe use by any number of attached SteMs between
// extensions.
type SharedState struct {
	keyCols  []int
	mask     uint64
	budget   int64
	spillDir string
	dicts    []*HashDict
	// spills[shard][partition]; nil when the build stayed resident.
	spills [][spillPartitions]sharedPart

	highWater    tuple.Timestamp
	rows         int
	spilledRows  int
	spilledBytes int64
	// residentBytes is atomic because the owner's footprint gauge reads it
	// while an extension is in flight.
	residentBytes atomic.Int64

	dir    string
	closed atomic.Bool
	// probeErr records the first spill-segment read failure (sealed files on
	// an open descriptor; exceptional). Attached runs surface it like a
	// governor I/O error.
	probeErr atomic.Pointer[error]
	closeMu  sync.Mutex
}

// BuildShared builds shared SteM state over rows: a new empty state, extended
// once. The build applies set-semantics duplicate elimination, exactly like
// a private SteM build fed by a scan.
func BuildShared(cfg SharedConfig, rows []tuple.Row) (*SharedState, error) {
	if len(cfg.KeyCols) == 0 {
		return nil, fmt.Errorf("stem: shared build requires key columns")
	}
	nsh := 1
	for nsh < cfg.Shards {
		nsh <<= 1
	}
	ss := &SharedState{
		keyCols:  slices.Clone(cfg.KeyCols),
		mask:     uint64(nsh - 1),
		budget:   cfg.BudgetBytes,
		spillDir: cfg.SpillDir,
		dicts:    make([]*HashDict, nsh),
	}
	for i := range ss.dicts {
		ss.dicts[i] = NewHashDict(ss.keyCols)
	}
	if err := ss.Extend(rows); err != nil {
		ss.Close()
		return nil, err
	}
	return ss, nil
}

// Extend inserts rows — the table's growth since the state was built or last
// extended — continuing the timestamp counter past HighWater. It must only be
// called while no SteM is attached (the server's refcounts and ready gate see
// to that), and not on a state that has spilled: the exact duplicate check
// for spilled rows lives only as long as the call that spilled them. On error
// the state is partially extended; Close it.
func (ss *SharedState) Extend(rows []tuple.Row) error {
	if ss.hasSpill() {
		return fmt.Errorf("stem: a spilled shared state cannot be extended")
	}
	// spillDup is the exact duplicate check for the rows this call spills:
	// resident duplicates are caught by the dictionary, spilled ones by this
	// map.
	var spillDup map[uint64][]tuple.Row
	for _, row := range rows {
		sd := int(row[ss.keyCols[0]].Hash64() & ss.mask)
		if ss.dicts[sd].Contains(row) {
			continue
		}
		if spillDup != nil {
			dup := false
			for _, r := range spillDup[row.Hash64()] {
				if r.Equal(row) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		ss.highWater++
		fp := RowFootprint(row)
		if ss.budget > 0 && ss.residentBytes.Load()+fp > ss.budget {
			if err := ss.appendSpill(sd, row, ss.highWater); err != nil {
				return err
			}
			if spillDup == nil {
				spillDup = make(map[uint64][]tuple.Row)
			}
			spillDup[row.Hash64()] = append(spillDup[row.Hash64()], row)
			ss.spilledRows++
			ss.spilledBytes += fp
		} else {
			ss.dicts[sd].Insert(row, ss.highWater)
			ss.residentBytes.Add(fp)
		}
		ss.rows++
	}
	return nil
}

// ExtendsResident reports whether Extend(rows) is allowed and would leave the
// state fully resident — the owner's test for extending in place instead of
// rebuilding. It charges every row, duplicate or not, so it may say no to an
// extension that would just have fit.
func (ss *SharedState) ExtendsResident(rows []tuple.Row) bool {
	if ss.hasSpill() {
		return false
	}
	if ss.budget <= 0 {
		return true
	}
	need := ss.residentBytes.Load()
	for _, row := range rows {
		need += RowFootprint(row)
	}
	return need <= ss.budget
}

// appendSpill writes one row to its shard's partition segment, creating the
// state's private spill directory and the segment file on first use.
func (ss *SharedState) appendSpill(sd int, row tuple.Row, ts tuple.Timestamp) error {
	if ss.spills == nil {
		baseDir := ss.spillDir
		if baseDir == "" {
			baseDir = os.TempDir()
		}
		dir, err := os.MkdirTemp(baseDir, "stems-shared-*")
		if err != nil {
			return fmt.Errorf("stem: shared spill dir: %w", err)
		}
		ss.dir = dir
		ss.spills = make([][spillPartitions]sharedPart, len(ss.dicts))
	}
	p := spillPartOf(row[ss.keyCols[0]])
	pt := &ss.spills[sd][p]
	if pt.f == nil {
		f, err := os.OpenFile(filepath.Join(ss.dir, fmt.Sprintf("s%d-p%d.seg", sd, p)),
			os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return fmt.Errorf("stem: shared spill segment: %w", err)
		}
		pt.f = f
	}
	buf := appendEntry(nil, row, ts)
	n, err := pt.f.Write(buf)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("stem: short shared spill write")
	}
	if err != nil {
		return err
	}
	pt.size += int64(n)
	pt.rows++
	pt.footprint += RowFootprint(row)
	return nil
}

// KeyCols returns the indexed columns (attachers must join on exactly these).
func (ss *SharedState) KeyCols() []int { return ss.keyCols }

// Rows returns the number of distinct rows stored (resident + spilled).
func (ss *SharedState) Rows() int { return ss.rows }

// HighWater returns the high-water mark of the build and its extensions:
// every stored entry's timestamp is in [1, HighWater], the exact window an
// attached probe covers.
func (ss *SharedState) HighWater() tuple.Timestamp { return ss.highWater }

// ResidentBytes returns the resident footprint, for catalog accounting.
func (ss *SharedState) ResidentBytes() int64 { return ss.residentBytes.Load() }

// SpilledBytes returns the on-disk footprint.
func (ss *SharedState) SpilledBytes() int64 { return ss.spilledBytes }

// SpilledRows returns the number of rows in sealed spill segments.
func (ss *SharedState) SpilledRows() int { return ss.spilledRows }

// hasSpill reports whether any partition spilled.
func (ss *SharedState) hasSpill() bool { return ss.spills != nil }

// partRows returns the row count of one sealed partition (0 when resident).
func (ss *SharedState) partRows(sd, p int) int {
	if ss.spills == nil {
		return 0
	}
	return ss.spills[sd][p].rows
}

// readPart decodes one sealed partition segment. The read is concurrent-safe
// (ReadAt on a sealed file) and called with only the attaching query's shard
// lock held.
func (ss *SharedState) readPart(sd, p int) ([]Entry, error) {
	pt := &ss.spills[sd][p]
	if pt.f == nil || pt.rows == 0 {
		return nil, nil
	}
	data := make([]byte, pt.size)
	if _, err := pt.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("stem: reading shared spill segment s%d-p%d: %w", sd, p, err)
	}
	return decodeEntries(data)
}

// noteProbeErr records the first probe-time spill read failure.
func (ss *SharedState) noteProbeErr(err error) {
	ss.probeErr.CompareAndSwap(nil, &err)
}

// Err returns the first probe-time spill I/O failure, if any — results may
// be missing spilled matches. Callers surface it like a governor error.
func (ss *SharedState) Err() error {
	if p := ss.probeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close releases the state's spill segments (files and directory). It must
// only be called when no query is attached — the server's refcounts gate
// this — and is idempotent.
func (ss *SharedState) Close() error {
	ss.closeMu.Lock()
	defer ss.closeMu.Unlock()
	if ss.closed.Swap(true) {
		return nil
	}
	var first error
	for sd := range ss.spills {
		for p := range ss.spills[sd] {
			if f := ss.spills[sd][p].f; f != nil {
				if err := f.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	if ss.dir != "" {
		if err := os.RemoveAll(ss.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newAttached builds a probe-only SteM handle over sealed shared state. The
// handle owns per-query scratch, probe caches, and stats; the dictionaries
// (and spill segments) belong to the SharedState and are never written.
func newAttached(cfg Config) *SteM {
	ss := cfg.Shared
	if cfg.Dict != nil || cfg.Window > 0 || cfg.Gov != nil || cfg.BuildBounceBatch > 0 {
		panic("stem: attached SteMs take no custom dict, window, governor, or build batching")
	}
	s := &SteM{
		cfg:      cfg,
		name:     fmt.Sprintf("SteM(%s)", cfg.Q.Tables[cfg.Table].Name),
		pcol:     -1,
		spillCol: -1,
		shared:   ss,
	}
	s.joinCols = JoinCols(cfg.Q, cfg.Table)
	if !slices.Equal(s.joinCols, ss.keyCols) {
		panic(fmt.Sprintf("stem: attached SteM on %s joins on %v but shared state indexes %v",
			s.name, s.joinCols, ss.keyCols))
	}
	nsh := len(ss.dicts)
	if nsh > 1 {
		s.pcol = ss.keyCols[0]
	}
	if ss.hasSpill() {
		s.spillCol = ss.keyCols[0]
	}
	if nsh > 1 || ss.hasSpill() {
		pc := ss.keyCols[0]
		for _, p := range cfg.Q.Preds {
			if !p.IsEquiJoin() {
				continue
			}
			if p.Left.Table == cfg.Table && p.Left.Col == pc {
				s.pcolSources = append(s.pcolSources, colRef{p.Right.Table, p.Right.Col})
			}
			if p.Right.Table == cfg.Table && p.Right.Col == pc {
				s.pcolSources = append(s.pcolSources, colRef{p.Left.Table, p.Left.Col})
			}
		}
	}
	s.shardMask = uint64(nsh - 1)
	s.shards = make([]shard, nsh)
	s.all = make([]*shard, nsh)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.dict = ss.dicts[i]
		sh.scr.predCache = make(map[tuple.TableSet][]pred.P)
		sh.idx = i
		sh.self[0] = sh
		s.all[i] = sh
	}
	s.gscr.predCache = make(map[tuple.TableSet][]pred.P)
	s.govID = -1
	return s
}

// Shared returns the shared state this SteM is attached to (nil for a
// private SteM).
func (s *SteM) Shared() *SharedState { return s.shared }

// probeSharedSpill matches probe t against the sealed spill partitions of
// one shard of the shared state, appending concatenations to out. scr.lk is
// the lookup probeLocked already built; the equality prefilter plus full
// predicate verification mirror the live resident path. Shared entries
// concatenate with component timestamp 0, like resident shared matches.
func (s *SteM) probeSharedSpill(shardIdx int, t *tuple.Tuple, scr *probeScratch, stats *Stats, out []flow.Emission) []flow.Emission {
	ss := s.shared
	var parts uint64
	if v, ok := s.pcolBinding(t); ok {
		p := spillPartOf(v)
		if ss.partRows(shardIdx, p) > 0 {
			parts = 1 << uint(p)
		}
	} else {
		for p := 0; p < spillPartitions; p++ {
			if ss.partRows(shardIdx, p) > 0 {
				parts |= 1 << uint(p)
			}
		}
	}
	for p := 0; p < spillPartitions; p++ {
		if parts&(1<<uint(p)) == 0 {
			continue
		}
		entries, err := ss.readPart(shardIdx, p)
		if err != nil {
			ss.noteProbeErr(err)
			continue
		}
		for _, e := range entries {
			if !equiMatches(e.Row, &scr.lk) {
				continue
			}
			cat := t.ConcatRowInto(scr.catScratch, s.cfg.Table, e.Row, 0)
			if !s.verify(cat) {
				scr.catScratch = cat
				continue
			}
			scr.catScratch = nil
			stats.Matches++
			out = append(out, flow.Emit(cat))
		}
	}
	return out
}
