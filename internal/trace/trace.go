// Package trace collects per-module execution statistics from a run and
// renders an EXPLAIN-ANALYZE-style report. Because the eddy architecture
// has no plan, the interesting post-hoc artifact is not a tree but the
// observed routing: how many tuples visited each module, what each visit
// produced, and where the time went — exactly the signals the routing
// policy itself adapts on.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/tuple"
)

// ModStats aggregates one module's activity.
type ModStats struct {
	Name      string
	Visits    uint64
	Outputs   uint64 // productive emissions (excluding input bounce-backs)
	TotalCost clock.Duration
	FirstBusy clock.Time
	LastBusy  clock.Time
}

// Collector accumulates a run's statistics. Attach it to a simulation with
// Attach before Run; it is not safe for concurrent use (the simulator is
// single-threaded).
type Collector struct {
	mods    []ModStats
	outputs uint64
	lastOut clock.Time
	// SpanHistogram counts emissions by span cardinality: index 1 holds
	// singletons, 2 holds two-table partials, and so on. Partial results
	// are the online-metric currency of the paper's FFF setting.
	SpanHistogram []uint64
}

// NewCollector sizes a collector for the given module list.
func NewCollector(mods []flow.Module) *Collector {
	c := &Collector{mods: make([]ModStats, len(mods))}
	for i, m := range mods {
		c.mods[i].Name = m.Name()
		c.mods[i].FirstBusy = -1
	}
	return c
}

// Attach hooks the collector into a simulation run. Existing hooks are
// chained.
func (c *Collector) Attach(sim *eddy.Sim) {
	prevProcess := sim.OnProcess
	sim.OnProcess = func(mod int, t *tuple.Tuple, at clock.Time, outputs int, cost clock.Duration) {
		m := &c.mods[mod]
		m.Visits++
		m.Outputs += uint64(outputs)
		m.TotalCost += cost
		if m.FirstBusy < 0 {
			m.FirstBusy = at
		}
		m.LastBusy = at
		if prevProcess != nil {
			prevProcess(mod, t, at, outputs, cost)
		}
	}
	prevEmit := sim.OnEmit
	sim.OnEmit = func(t *tuple.Tuple, at clock.Time) {
		if t.EOT == nil && !t.Seed {
			n := t.Span.Count()
			for len(c.SpanHistogram) <= n {
				c.SpanHistogram = append(c.SpanHistogram, 0)
			}
			c.SpanHistogram[n]++
		}
		if prevEmit != nil {
			prevEmit(t, at)
		}
	}
	prevOut := sim.OnOutput
	sim.OnOutput = func(t *tuple.Tuple, at clock.Time) {
		c.outputs++
		c.lastOut = at
		if prevOut != nil {
			prevOut(t, at)
		}
	}
}

// AttachConcurrent hooks the collector into a concurrent-engine run: the
// engine reports every service completion the policy observes (row and
// columnar batches both funnel through the single eddy goroutine, so no
// locking is needed) and every result emission. Existing hooks are chained;
// attach after installing any streaming OnOutput or OnOutputCols so both run
// (the collector counts a columnar sink's rows, it never installs one of its
// own: that would take the tuple consumers' results away). The span histogram
// is not populated on this path — the concurrent engine does not expose
// per-emission hooks.
func (c *Collector) AttachConcurrent(eng *eddy.Concurrent) {
	prevService := eng.OnService
	eng.OnService = func(fb policy.Feedback) {
		c.ObserveFeedback(fb)
		if prevService != nil {
			prevService(fb)
		}
	}
	prevOut := eng.OnOutput
	eng.OnOutput = func(t *tuple.Tuple, at clock.Time) {
		c.outputs++
		c.lastOut = at
		if prevOut != nil {
			prevOut(t, at)
		}
	}
	if prevCols := eng.OnOutputCols; prevCols != nil {
		eng.OnOutputCols = func(cb *flow.ColBatch, at clock.Time) {
			c.outputs += uint64(cb.Rows())
			c.lastOut = at
			prevCols(cb, at)
		}
	}
}

// ObserveFeedback folds one service-completion feedback event into the
// per-module aggregates. Batched feedback carries totals over Visits module
// visits; they are accumulated as-is (totals are what the report shows).
func (c *Collector) ObserveFeedback(fb policy.Feedback) {
	if fb.Module < 0 || fb.Module >= len(c.mods) || fb.Emitted < 0 {
		return
	}
	m := &c.mods[fb.Module]
	n := fb.Visits
	if n < 1 {
		n = 1
	}
	m.Visits += uint64(n)
	if fb.Outputs > 0 {
		m.Outputs += uint64(fb.Outputs)
	}
	m.TotalCost += fb.Cost
	if m.FirstBusy < 0 {
		m.FirstBusy = fb.Now
	}
	m.LastBusy = fb.Now
}

// Reset clears all accumulated statistics, keeping the module names, so a
// pooled execution shell can reuse one collector without bleeding stats
// across runs.
func (c *Collector) Reset() {
	for i := range c.mods {
		name := c.mods[i].Name
		c.mods[i] = ModStats{Name: name, FirstBusy: -1}
	}
	c.outputs = 0
	c.lastOut = 0
	c.SpanHistogram = c.SpanHistogram[:0]
}

// ModuleRecord is one module's aggregates in wire form.
type ModuleRecord struct {
	Name    string `json:"name"`
	Visits  uint64 `json:"visits"`
	Outputs uint64 `json:"outputs"`
	// Selectivity is outputs per visit — the productive-output rate the
	// routing policy steers on.
	Selectivity float64 `json:"selectivity"`
	// BusySeconds is total service time charged to the module.
	BusySeconds float64 `json:"busy_seconds"`
	FirstBusy   float64 `json:"first_busy_s"`
	LastBusy    float64 `json:"last_busy_s"`
}

// Record is the JSON-serializable form of a run's trace: per-module stats
// plus (when the policy supports introspection) the learned routing state.
type Record struct {
	Results     uint64           `json:"results"`
	LastOutputS float64          `json:"last_output_s"`
	Modules     []ModuleRecord   `json:"modules"`
	SpanHist    []uint64         `json:"span_histogram,omitempty"`
	Policy      []PolicyEstimate `json:"policy,omitempty"`
}

// PolicyEstimate names a policy.ModuleState with the module's display name.
type PolicyEstimate struct {
	Module      string  `json:"module"`
	Sig         uint64  `json:"sig"`
	Visits      uint64  `json:"visits"`
	OutPerVisit float64 `json:"out_per_visit"`
	CostSeconds float64 `json:"cost_seconds"`
}

// Record snapshots the collector (and, if pol implements
// policy.Introspector, the policy's learned estimates) into wire form.
// Modules are ordered by visit count, busiest first, matching Report.
func (c *Collector) Record(pol policy.Policy) Record {
	rec := Record{
		Results:     c.outputs,
		LastOutputS: c.lastOut.Seconds(),
		Modules:     make([]ModuleRecord, 0, len(c.mods)),
	}
	order := make([]int, len(c.mods))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return c.mods[order[a]].Visits > c.mods[order[b]].Visits })
	for _, i := range order {
		m := c.mods[i]
		sel := 0.0
		if m.Visits > 0 {
			sel = float64(m.Outputs) / float64(m.Visits)
		}
		first := 0.0
		if m.FirstBusy >= 0 {
			first = m.FirstBusy.Seconds()
		}
		rec.Modules = append(rec.Modules, ModuleRecord{
			Name:        m.Name,
			Visits:      m.Visits,
			Outputs:     m.Outputs,
			Selectivity: sel,
			BusySeconds: m.TotalCost.Seconds(),
			FirstBusy:   first,
			LastBusy:    m.LastBusy.Seconds(),
		})
	}
	if len(c.SpanHistogram) > 0 {
		rec.SpanHist = append([]uint64(nil), c.SpanHistogram...)
	}
	if intro, ok := pol.(policy.Introspector); ok {
		for _, ms := range intro.Snapshot() {
			name := fmt.Sprintf("#%d", ms.Module)
			if ms.Module >= 0 && ms.Module < len(c.mods) {
				name = c.mods[ms.Module].Name
			}
			rec.Policy = append(rec.Policy, PolicyEstimate{
				Module:      name,
				Sig:         ms.Sig,
				Visits:      ms.Visits,
				OutPerVisit: ms.OutPerVisit,
				CostSeconds: ms.CostSeconds,
			})
		}
	}
	return rec
}

// Report renders the collected statistics.
func (c *Collector) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive execution report — %d results, last at %.6fs\n", c.outputs, c.lastOut.Seconds())
	fmt.Fprintf(&b, "%-24s %10s %10s %12s %10s %10s\n", "module", "visits", "outputs", "busy(s)", "first(s)", "last(s)")

	order := make([]int, len(c.mods))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return c.mods[order[a]].Visits > c.mods[order[b]].Visits })
	for _, i := range order {
		m := c.mods[i]
		first := 0.0
		if m.FirstBusy >= 0 {
			first = m.FirstBusy.Seconds()
		}
		fmt.Fprintf(&b, "%-24s %10d %10d %12.6f %10.3f %10.3f\n",
			m.Name, m.Visits, m.Outputs, m.TotalCost.Seconds(), first, m.LastBusy.Seconds())
	}
	if len(c.SpanHistogram) > 0 {
		fmt.Fprintf(&b, "emissions by span width:")
		for n, cnt := range c.SpanHistogram {
			if n == 0 || cnt == 0 {
				continue
			}
			fmt.Fprintf(&b, " %d-table=%d", n, cnt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
