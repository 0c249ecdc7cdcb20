// governor.go implements the Section 6 extension the paper sketches as
// future work: "Since SteMs encapsulate the data structures, and communicate
// directly with the eddy, they enable the eddy to observe and control memory
// resource utilization across all modules in the query. The eddy can make
// memory allocation decisions in a globally optimal manner, possibly based
// on overall memory availability as well as relative frequency of probes
// into each SteM. This can be extended to let the eddy control spilling of
// tuples to the disk as well."
//
// The Governor arbitrates a global budget of resident bytes (row footprint
// accounting) across the SteMs of a query: rows beyond a SteM's allocation
// are written to disk segments under an os.Root-confined spill directory and
// their results are regenerated by the replay pass (see spill.go). It
// periodically rebalances allocations in proportion to observed probe
// frequency (hot SteMs stay in memory) — exactly the globally-informed
// decision an encapsulated join could never make — and the rebalance can also
// recall ("un-spill") a hot partition whose allocation has regained room.
package stem

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// spillDirSeq disambiguates per-run spill directories created in the same
// process.
var spillDirSeq atomic.Uint64

// Governor arbitrates a global memory budget across SteMs.
type Governor struct {
	mu sync.Mutex
	// bytesBudget is the total resident row footprint across all registered
	// SteMs.
	bytesBudget int64

	members []*govMember
	// ops counts operations since the last rebalance.
	ops int
	// rebalanceEvery controls rebalance frequency in operations.
	rebalanceEvery int

	// Spill state: the per-run directory (created under the caller's
	// spill dir), the os.Root confining every segment file to it, the set of
	// live segment names, and the first I/O error observed.
	dir      string
	root     *os.Root
	segments map[string]*os.File
	firstErr error
	closed   bool
}

type govMember struct {
	probeEWMA float64

	residentBytes int64
	spilledBytes  int64
	allocBytes    int64
}

// NewSpillGovernor creates a governor: SteMs under it keep at most
// budgetBytes of row footprint resident (allocated across SteMs by probe
// frequency) and write the rest to per-partition segment files in a fresh
// private subdirectory of dir, created here and removed by Close. All
// segment I/O goes through an os.Root on that subdirectory, so no spill
// path can escape it.
func NewSpillGovernor(budgetBytes int64, dir string) (*Governor, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("stem: spill governor needs a positive byte budget, got %d", budgetBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stem: spill dir: %w", err)
	}
	run := filepath.Join(dir, fmt.Sprintf("stems-spill-%d-%d", os.Getpid(), spillDirSeq.Add(1)))
	if err := os.Mkdir(run, 0o755); err != nil {
		return nil, fmt.Errorf("stem: spill run dir: %w", err)
	}
	root, err := os.OpenRoot(run)
	if err != nil {
		os.Remove(run)
		return nil, fmt.Errorf("stem: spill run dir: %w", err)
	}
	return &Governor{
		bytesBudget:    budgetBytes,
		rebalanceEvery: 64,
		dir:            run,
		root:           root,
		segments:       make(map[string]*os.File),
	}, nil
}

// register adds a SteM and returns its membership handle index.
func (g *Governor) register() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, &govMember{})
	g.rebalanceLocked()
	return len(g.members) - 1
}

// admitBuild decides the fate of a freshly built row of footprint fp: true
// admits it to the resident dictionary, false sends it to disk.
// The accounting for either outcome is applied here.
func (g *Governor) admitBuild(id int, fp int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	g.tick()
	if m.residentBytes+fp <= m.allocBytes {
		m.residentBytes += fp
		return true
	}
	m.spilledBytes += fp
	return false
}

// noteSpillFallback accounts a row that should have spilled but was stored
// resident because the segment write failed.
func (g *Governor) noteSpillFallback(id int, fp int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	m.spilledBytes -= fp
	m.residentBytes += fp
}

// tryRecall asks to move bytes of spilled footprint back into member id's
// resident account — how probe-frequency rebalancing turns into un-spilling
// hot partitions. The gate is the global budget, not the member allocation:
// a member's early spills (made under a small pre-rebalance allocation) can
// come back while total residency still has headroom, but total resident
// footprint never exceeds the budget.
func (g *Governor) tryRecall(id int, bytes int64) bool {
	if bytes <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var resident int64
	for _, m := range g.members {
		resident += m.residentBytes
	}
	if resident+bytes > g.bytesBudget {
		return false
	}
	m := g.members[id]
	m.residentBytes += bytes
	m.spilledBytes -= bytes
	if m.residentBytes > m.allocBytes {
		m.allocBytes = m.residentBytes
	}
	return true
}

// undoRecall reverts a tryRecall whose segment read failed.
func (g *Governor) undoRecall(id int, bytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	m.residentBytes -= bytes
	m.spilledBytes += bytes
}

// noteProbe records a probe of member id, feeding the probe frequency the
// rebalance divides the budget by.
func (g *Governor) noteProbe(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	m.probeEWMA = 0.1 + 0.9*m.probeEWMA + 1 // +1 per probe, mild decay floor
	g.tick()
}

// BytesStats returns the total resident and spilled row footprint across all
// members. Exposed as server gauges.
func (g *Governor) BytesStats() (resident, spilled int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		resident += m.residentBytes
		spilled += m.spilledBytes
	}
	return resident, spilled
}

// fail records the first spill I/O error; the run keeps its results correct
// (failed spills fall back to resident storage) but callers must surface the
// error, since the budget was not honored.
func (g *Governor) fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// Err returns the first spill I/O error observed, if any.
func (g *Governor) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstErr
}

// createSegment creates a spill segment file inside the confined run
// directory and registers it for cleanup.
func (g *Governor) createSegment(name string) (*os.File, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("stem: governor closed")
	}
	f, err := g.root.Create(name)
	if err != nil {
		return nil, fmt.Errorf("stem: creating spill segment: %w", err)
	}
	g.segments[name] = f
	return f, nil
}

// removeSegment deletes a segment file (after recall) and drops it from the
// cleanup set.
func (g *Governor) removeSegment(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	if f := g.segments[name]; f != nil {
		f.Close()
	}
	if err := g.root.Remove(name); err != nil && g.firstErr == nil {
		g.firstErr = err
	}
	delete(g.segments, name)
}

// Close removes every live spill segment and the per-run directory. It is
// idempotent and must be called on every exit path, including cancellation —
// a canceled run leaves recorded probes unreplayed, but never files. SteMs
// governed by a closed governor must not be used again.
func (g *Governor) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	var first error
	for name, f := range g.segments {
		if f != nil {
			f.Close()
		}
		if err := g.root.Remove(name); err != nil && first == nil {
			first = err
		}
		delete(g.segments, name)
	}
	g.root.Close()
	if err := os.Remove(g.dir); err != nil && first == nil {
		first = err
	}
	return first
}

func (g *Governor) tick() {
	g.ops++
	if g.ops >= g.rebalanceEvery {
		g.ops = 0
		g.rebalanceLocked()
		// Probe frequencies decay between rebalances so the allocation
		// follows shifting workloads.
		for _, m := range g.members {
			m.probeEWMA *= 0.5
		}
	}
}

// rebalanceLocked divides the byte budget in proportion to each member's
// exponentially weighted probe frequency (evenly before any probe). Allocations
// never fall below a member's current resident bytes: resident rows cannot be
// evicted once probes may have matched them (that is the spill-at-build
// invariant), so shrinking an allocation below residency would be a promise
// the governor cannot keep. The remaining headroom is what gets divided.
func (g *Governor) rebalanceLocked() {
	n := len(g.members)
	if n == 0 {
		return
	}
	var pinned int64
	total := 0.0
	for _, m := range g.members {
		pinned += m.residentBytes
		total += m.probeEWMA
	}
	free := max(g.bytesBudget-pinned, 0)
	for _, m := range g.members {
		share := free / int64(n)
		if total > 0 {
			share = int64(float64(free) * m.probeEWMA / total)
		}
		m.allocBytes = m.residentBytes + share
	}
}
