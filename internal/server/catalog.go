// catalog.go is the serving layer's shared table catalog: a mutable,
// RWMutex-guarded name→source map that every session binds queries against.
// A published entry is never modified: registration replaces the whole
// entry, and an INSERT publishes a new *source.Table whose Rows header is
// longer, so queries that bound against an old version keep running on it
// safely while new queries see the replacement.
//
// What an INSERT does not do is copy the table. Each table's rows live in one
// backing array, grown amortised, whose published prefix is immutable: the
// single writer (Append, under the write lock) only ever writes past every
// published length, and a reader holding an older []tuple.Row header never
// indexes past its own. In-flight queries, stale plan entries and a
// subscription's rows[seen:] therefore share the array instead of each
// pinning a copy, and an append costs the rows appended, not the table
// (TestAppendCostsTheDelta, TestAppendPrefixStable, TestAppendNeverAliases).
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/csvload"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// Catalog is a concurrency-safe, mutable catalog of registered tables. It
// implements sql.Catalog, so statements bind against it directly; Snapshot
// returns an immutable view when a multi-lookup bind must see one version.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]sql.Source
	// version counts catalog mutations (Put, AddIndex, Append). The plan
	// cache keys entries on the version a statement was bound at, so any
	// mutation lazily invalidates every cached plan by version mismatch — no
	// enumeration of affected plans, no lock coupling between DDL and the
	// cache.
	version uint64
	// grown is, per table, the *source.Table the last Append published: the
	// proof that the entry's backing array was allocated here, so the next
	// Append may write into its spare capacity. Any other table — fresh from
	// a Put, possibly registered under a second name or sliced from an array
	// its caller still writes — is copied by its first Append instead.
	grown map[string]*source.Table
	// changed is closed and replaced on every mutation; Changed hands it to
	// subscribers as a broadcast "something moved, re-inspect" signal.
	changed chan struct{}

	// scanInterval is the modeled inter-arrival pacing given to the scan
	// access method of every registered table.
	scanInterval clock.Duration
	// dir, when non-empty, confines REGISTER paths: relative paths resolve
	// under it and escaping it (.. or absolute paths) is an error.
	dir string
}

// NewCatalog returns an empty catalog. dir, when non-empty, is the directory
// REGISTER statement paths are confined to. scanInterval is a modeled
// inter-arrival time stamped on every registered table's scan, which keeps it
// on the engine's row path (one delayed delivery per row). stemsd and stemsql
// pass 0: a registered CSV is local data, and a slow remote source is declared
// with INDEX … LATENCY. The parameter survives for bench/trace.go's replay
// (frozen) and this package's slow-catalog cancellation tests.
func NewCatalog(scanInterval time.Duration, dir string) *Catalog {
	return &Catalog{
		sources:      make(map[string]sql.Source),
		grown:        make(map[string]*source.Table),
		changed:      make(chan struct{}),
		scanInterval: clock.Duration(scanInterval),
		dir:          dir,
	}
}

// Source implements sql.Catalog.
func (c *Catalog) Source(name string) (sql.Source, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sources[name]
	return s, ok
}

// Snapshot returns an immutable copy of the catalog for binding: every
// lookup during one bind sees the same version regardless of concurrent
// registrations. The copy shares the (immutable) source tables.
func (c *Catalog) Snapshot() sql.MapCatalog {
	snap, _ := c.SnapshotVersioned()
	return snap
}

// SnapshotVersioned returns an immutable catalog copy together with the
// version it reflects, taken atomically under one lock so a concurrent
// registration cannot slip between the copy and the version read.
func (c *Catalog) SnapshotVersioned() (sql.MapCatalog, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(sql.MapCatalog, len(c.sources))
	for k, v := range c.sources {
		out[k] = v
	}
	return out, c.version
}

// Tables returns the registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.sources))
	for k := range c.sources {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered tables.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sources)
}

// Put registers (or replaces) a source under the given name and bumps the
// catalog version and the table's generation (sql.Source.Gen, stamped here).
func (c *Catalog) Put(name string, s sql.Source) {
	c.mu.Lock()
	s.Gen = c.sources[name].Gen + 1
	c.sources[name] = s
	delete(c.grown, name)
	c.version++
	c.notifyLocked()
	c.mu.Unlock()
}

// notifyLocked wakes every Changed subscriber; the caller holds c.mu.
func (c *Catalog) notifyLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// Changed returns a channel that is closed at the next catalog mutation
// (Put, AddIndex, or Append). Subscribers re-call it after each wake-up; a
// mutation between the wake-up and the re-call closes the fresh channel
// immediately, so no change is ever missed.
func (c *Catalog) Changed() <-chan struct{} {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.changed
}

// SnapshotSubscribe returns an immutable catalog copy together with every
// table's generation, taken atomically under one lock: a subscription binds
// against the snapshot and records the generations as its baseline, so a
// concurrent Put is seen either by the bind or as a later generation change
// — never missed.
func (c *Catalog) SnapshotSubscribe() (sql.MapCatalog, map[string]uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(sql.MapCatalog, len(c.sources))
	gens := make(map[string]uint64, len(c.sources))
	for k, v := range c.sources {
		out[k] = v
		gens[k] = v.Gen
	}
	return out, gens
}

// SourceGen returns the named source together with its generation, read
// atomically. The generation moves on Put and AddIndex but not on Append:
// same generation + more rows means "the table you bound is still the one
// being extended".
func (c *Catalog) SourceGen(name string) (sql.Source, uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sources[name]
	return s, s.Gen, ok
}

// Append adds rows to a registered table and returns its new total row count.
// Only the new rows are validated against the schema and only they are
// written: the published table is a new header over the same backing array
// (see the package comment), so in-flight queries keep the length they bound
// while new binds — and the lazy invalidation of plan-cache entries, which
// compares catalog versions, and the extension of shared SteMs, which
// compares row counts within a generation — see the longer one.
func (c *Catalog) Append(name string, rows []tuple.Row) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.sources[name]
	if !ok {
		return 0, fmt.Errorf("server: insert into unknown table %q", name)
	}
	cur := src.Data
	for i, r := range rows {
		if err := source.CheckRow(cur.Schema, r); err != nil {
			return 0, fmt.Errorf("server: insert into %q: row %d of %d %w", name, i+1, len(rows), err)
		}
	}
	base := cur.Rows
	if c.grown[name] != cur {
		base = slices.Clip(base) // not our array: no spare capacity, so append copies
	}
	data := &source.Table{Schema: cur.Schema, Rows: append(base, rows...)}
	c.grown[name] = data
	src.Data = data
	c.sources[name] = src
	c.version++
	c.notifyLocked()
	return len(data.Rows), nil
}

// open applies the catalog's data-directory confinement: with a dir set,
// paths open through an os.Root, which rejects absolute paths and blocks
// every escape — `..` traversal and symlinks pointing outside alike — at
// the OS level, not lexically.
func (c *Catalog) open(path string) (*os.File, error) {
	if c.dir == "" {
		return os.Open(path)
	}
	if filepath.IsAbs(path) {
		return nil, fmt.Errorf("absolute path %q not allowed (data dir is %q)", path, c.dir)
	}
	root, err := os.OpenRoot(c.dir)
	if err != nil {
		return nil, err
	}
	defer root.Close()
	return root.Open(path)
}

// RegisterCSV loads the CSV at path — confined to the data dir, since the
// path may come from an untrusted REGISTER statement — and registers it
// under name with a scan access method plus the given index declarations.
// It returns the number of rows loaded. The load happens outside the
// catalog lock; registration atomically replaces any existing entry of the
// same name.
func (c *Catalog) RegisterCSV(name, path string, indexes []sql.RegisterIndex) (int, error) {
	f, err := c.open(path)
	if err != nil {
		return 0, fmt.Errorf("server: register %s: %w", name, err)
	}
	return c.registerFrom(name, f, indexes)
}

// RegisterLocalCSV loads the CSV at path with NO data-dir confinement —
// for operator-supplied paths (command-line flags), never for paths taken
// from client statements.
func (c *Catalog) RegisterLocalCSV(name, path string, indexes []sql.RegisterIndex) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("server: register %s: %w", name, err)
	}
	return c.registerFrom(name, f, indexes)
}

func (c *Catalog) registerFrom(name string, f *os.File, indexes []sql.RegisterIndex) (int, error) {
	data, err := csvload.Load(name, f)
	f.Close()
	if err != nil {
		return 0, err
	}
	scan := source.ScanSpec{InterArrival: c.scanInterval}
	src := sql.Source{Data: data, Scan: &scan}
	for _, ix := range indexes {
		col := data.Schema.ColIndex(ix.Col)
		if col < 0 {
			return 0, fmt.Errorf("server: register %s: no column %q for INDEX", name, ix.Col)
		}
		src.Indexes = append(src.Indexes, source.IndexSpec{
			KeyCols: []int{col}, Latency: clock.Duration(ix.Latency), Parallel: 1,
		})
	}
	c.Put(name, src)
	return len(data.Rows), nil
}

// Apply executes a parsed REGISTER TABLE statement against the catalog,
// returning the number of rows loaded.
func (c *Catalog) Apply(st *sql.RegisterStmt) (int, error) {
	return c.RegisterCSV(st.Name, st.Path, st.Indexes)
}

// LoadFlagSpecs fills the catalog from the command-line specs shared by
// the stemsql and stemsd binaries: tables as "name=path.csv" and indexes
// as "table:column:latency". Flag paths are operator input, so they load
// without data-dir confinement.
func (c *Catalog) LoadFlagSpecs(tables, indexes []string) error {
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("server: bad table spec %q (want name=path.csv)", spec)
		}
		if _, err := c.RegisterLocalCSV(name, path, nil); err != nil {
			return err
		}
	}
	for _, spec := range indexes {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return fmt.Errorf("server: bad index spec %q (want table:column:latency)", spec)
		}
		lat, err := time.ParseDuration(parts[2])
		if err != nil {
			return fmt.Errorf("server: index latency: %w", err)
		}
		if err := c.AddIndex(parts[0], parts[1], lat); err != nil {
			return err
		}
	}
	return nil
}

// AddIndex declares an additional single-column index access method on an
// already-registered table.
func (c *Catalog) AddIndex(table, col string, latency time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.sources[table]
	if !ok {
		return fmt.Errorf("server: index on unknown table %q", table)
	}
	ci := src.Data.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("server: index on unknown column %q of %q", col, table)
	}
	src.Indexes = append(append([]source.IndexSpec(nil), src.Indexes...), source.IndexSpec{
		KeyCols: []int{ci}, Latency: clock.Duration(latency), Parallel: 1,
	})
	src.Gen++
	c.sources[table] = src
	c.version++
	c.notifyLocked()
	return nil
}
