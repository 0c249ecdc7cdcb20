// governor.go implements the Section 6 extension the paper sketches as
// future work: "Since SteMs encapsulate the data structures, and communicate
// directly with the eddy, they enable the eddy to observe and control memory
// resource utilization across all modules in the query. The eddy can make
// memory allocation decisions in a globally optimal manner, possibly based
// on overall memory availability as well as relative frequency of probes
// into each SteM. This can be extended to let the eddy control spilling of
// tuples to the disk as well."
//
// The Governor arbitrates a global budget across the SteMs of a query, in
// one of two modes:
//
//   - Modeled (NewGovernor): the budget counts resident rows; rows beyond a
//     SteM's allocation are "spilled" in name only — still resident, still
//     correct to probe, but each probe pays a penalty proportional to the
//     fraction of the SteM's rows nominally on disk. This is the simulator's
//     mode: it reproduces the cost shape of spilling deterministically with
//     no I/O.
//   - Real (NewSpillGovernor): the budget counts resident bytes (row
//     footprint accounting); rows beyond a SteM's allocation are written to
//     disk segments under an os.Root-confined spill directory and their
//     results are regenerated by the replay pass (see spill.go). Probes pay
//     no modeled penalty — the replay I/O is the real cost.
//
// In both modes the governor periodically rebalances allocations in
// proportion to observed probe frequency (hot SteMs stay in memory), which
// is exactly the globally-informed decision an encapsulated join could never
// make; in real mode the rebalance can also recall ("un-spill") a hot
// partition whose allocation has regained room.
package stem

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// AllocPolicy selects how the governor divides the budget.
type AllocPolicy uint8

const (
	// AllocEqual splits the budget evenly across SteMs (the baseline an
	// encapsulated design is stuck with).
	AllocEqual AllocPolicy = iota
	// AllocByProbes splits the budget in proportion to each SteM's
	// exponentially weighted probe frequency.
	AllocByProbes
)

// spillDirSeq disambiguates per-run spill directories created in the same
// process.
var spillDirSeq atomic.Uint64

// Governor arbitrates a global memory budget across SteMs.
type Governor struct {
	mu sync.Mutex
	// budget is the total number of resident rows (modeled mode) across all
	// registered SteMs; 0 disables row governance.
	budget int
	// bytesBudget is the total resident row footprint (real mode); 0 means
	// the governor is in modeled mode.
	bytesBudget int64
	policy      AllocPolicy
	// spillPenalty is the extra probe cost charged in modeled mode when
	// every probed row is spilled; partial spill charges proportionally.
	spillPenalty clock.Duration

	members []*govMember
	// ops counts operations since the last rebalance.
	ops int
	// rebalanceEvery controls rebalance frequency in operations.
	rebalanceEvery int

	// Real-spill state: the per-run directory (created under the caller's
	// spill dir), the os.Root confining every segment file to it, the set of
	// live segment names, and the first I/O error observed.
	dir      string
	root     *os.Root
	segments map[string]*os.File
	firstErr error
	closed   bool
}

type govMember struct {
	rows      int
	alloc     int
	probeEWMA float64

	// Real-mode byte accounts.
	residentBytes int64
	spilledBytes  int64
	allocBytes    int64
}

// NewGovernor creates a modeled-mode governor with the given global budget
// (rows), allocation policy and full-spill probe penalty.
func NewGovernor(budget int, policy AllocPolicy, spillPenalty clock.Duration) *Governor {
	return &Governor{
		budget:         budget,
		policy:         policy,
		spillPenalty:   spillPenalty,
		rebalanceEvery: 64,
	}
}

// NewSpillGovernor creates a real-spill governor: SteMs under it keep at
// most budgetBytes of row footprint resident (allocated across SteMs by
// policy) and write the rest to per-partition segment files in a fresh
// private subdirectory of dir, created here and removed by Close. All
// segment I/O goes through an os.Root on that subdirectory, so no spill
// path can escape it.
func NewSpillGovernor(budgetBytes int64, policy AllocPolicy, dir string) (*Governor, error) {
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
		policy:         policy,
		rebalanceEvery: 64,
		dir:            run,
		root:           root,
		segments:       make(map[string]*os.File),
	}, nil
}

// SpillActive reports whether the governor is in real-spill (byte budget)
// mode.
func (g *Governor) SpillActive() bool { return g != nil && g.bytesBudget > 0 }

// register adds a SteM and returns its membership handle index.
func (g *Governor) register() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, &govMember{})
	g.rebalanceLocked()
	return len(g.members) - 1
}

// noteBuild records a stored row for member id (modeled mode).
func (g *Governor) noteBuild(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[id].rows++
	g.tick()
}

// noteEvict records a removed row.
func (g *Governor) noteEvict(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.members[id].rows > 0 {
		g.members[id].rows--
	}
}

// admitBuild decides the fate of a freshly built row of footprint fp in real
// mode: true admits it to the resident dictionary, false sends it to disk.
// The accounting for either outcome is applied here.
func (g *Governor) admitBuild(id int, fp int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	m.rows++
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

// probePenalty records a probe for member id and returns the spill penalty
// the probe pays under the current allocation (always zero in real mode,
// where replay I/O is the real cost).
func (g *Governor) probePenalty(id int) clock.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	m.probeEWMA = 0.1 + 0.9*m.probeEWMA + 1 // +1 per probe, mild decay floor
	g.tick()
	if g.bytesBudget > 0 || g.budget <= 0 || m.rows == 0 {
		return 0
	}
	spilled := m.rows - m.alloc
	if spilled <= 0 {
		return 0
	}
	frac := float64(spilled) / float64(m.rows)
	return clock.Duration(float64(g.spillPenalty) * frac)
}

// SpilledRows reports the current nominally spilled row count of member id
// in modeled mode, for tests and reports.
func (g *Governor) SpilledRows(id int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[id]
	if g.budget <= 0 {
		return 0
	}
	if s := m.rows - m.alloc; s > 0 {
		return s
	}
	return 0
}

// BytesStats returns the total resident and spilled row footprint across all
// members (real mode; zeros in modeled mode). Exposed as server gauges.
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
	if g.root == nil {
		return nil, fmt.Errorf("stem: governor has no spill directory")
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
	if g.root == nil {
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
	if g.closed || g.root == nil {
		g.closed = true
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
	g.root = nil
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

// rebalanceLocked recomputes allocations under the policy. In real mode the
// byte budget is divided; in modeled mode the row budget.
func (g *Governor) rebalanceLocked() {
	n := len(g.members)
	if n == 0 {
		return
	}
	if g.bytesBudget > 0 {
		g.rebalanceBytesLocked(n)
		return
	}
	if g.budget <= 0 {
		return
	}
	switch g.policy {
	case AllocByProbes:
		total := 0.0
		for _, m := range g.members {
			total += m.probeEWMA
		}
		if total <= 0 {
			for _, m := range g.members {
				m.alloc = g.budget / n
			}
			return
		}
		for _, m := range g.members {
			m.alloc = int(float64(g.budget) * m.probeEWMA / total)
		}
	default:
		for _, m := range g.members {
			m.alloc = g.budget / n
		}
	}
}

// rebalanceBytesLocked divides the byte budget. Allocations never fall below
// a member's current resident bytes: resident rows cannot be evicted once
// probes may have matched them (that is the spill-at-build invariant), so
// shrinking an allocation below residency would be a promise the governor
// cannot keep. The remaining headroom is what the policy divides.
func (g *Governor) rebalanceBytesLocked(n int) {
	var pinned int64
	for _, m := range g.members {
		pinned += m.residentBytes
	}
	free := g.bytesBudget - pinned
	if free < 0 {
		free = 0
	}
	switch g.policy {
	case AllocByProbes:
		total := 0.0
		for _, m := range g.members {
			total += m.probeEWMA
		}
		for _, m := range g.members {
			share := free / int64(n)
			if total > 0 {
				share = int64(float64(free) * m.probeEWMA / total)
			}
			m.allocBytes = m.residentBytes + share
		}
	default:
		for _, m := range g.members {
			m.allocBytes = m.residentBytes + free/int64(n)
		}
	}
}
