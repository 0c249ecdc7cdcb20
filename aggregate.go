// aggregate.go implements grouping and aggregation over result rows. The
// paper's architecture deliberately keeps these out of the dataflow: "We
// assume that ... GroupBy, Aggregation, and complex SELECT-list expressions
// are implemented above the eddy, before results are output to the user"
// (footnote 1). These helpers are that layer: they consume Result.Rows (or a
// stream of rows via Aggregator) and fold them into groups.
package stems

import (
	"fmt"
	"sort"
)

// GroupStats is the aggregate state of one group.
type GroupStats struct {
	// Key renders the group's key values.
	Key string
	// Count is the number of rows in the group.
	Count int
	// Sum, Min and Max summarize the aggregated column; they are zero (and
	// Min/Max meaningless) when the aggregate column was absent or
	// non-integer.
	Sum int64
	Min int64
	Max int64
}

// Aggregator folds rows into groups incrementally; it works equally over a
// completed Result or inside an OnResult stream callback (online
// aggregation, in the spirit of the paper's interactive setting).
type Aggregator struct {
	groupRefs []string
	aggRef    string
	groups    map[string]*GroupStats
}

// NewAggregator groups by the given "Table.column" references and, if aggRef
// is non-empty, additionally aggregates that integer column.
func NewAggregator(groupRefs []string, aggRef string) *Aggregator {
	return &Aggregator{
		groupRefs: append([]string(nil), groupRefs...),
		aggRef:    aggRef,
		groups:    make(map[string]*GroupStats),
	}
}

// Add folds one row.
func (a *Aggregator) Add(r Row) {
	key := ""
	for i, g := range a.groupRefs {
		v, ok := r.Get(g)
		if !ok {
			return // row does not span the grouping column (partial result)
		}
		if i > 0 {
			key += ","
		}
		key += v.String()
	}
	g := a.groups[key]
	if g == nil {
		g = &GroupStats{Key: key}
		a.groups[key] = g
	}
	g.Count++
	if a.aggRef == "" {
		return
	}
	v, ok := r.Get(a.aggRef)
	if !ok || !isInt(v) {
		return
	}
	g.Sum += v.I
	if g.Count == 1 || v.I < g.Min {
		g.Min = v.I
	}
	if g.Count == 1 || v.I > g.Max {
		g.Max = v.I
	}
}

func isInt(v Value) bool { return v.K == Int(0).K }

// Groups returns the group aggregates sorted by key.
func (a *Aggregator) Groups() []GroupStats {
	out := make([]GroupStats, 0, len(a.groups))
	for _, g := range a.groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// GroupCount groups completed result rows by one column reference and
// returns per-group row counts sorted by key.
func GroupCount(rows []Row, groupRef string) []GroupStats {
	a := NewAggregator([]string{groupRef}, "")
	for _, r := range rows {
		a.Add(r)
	}
	return a.Groups()
}

// String renders the group stats compactly.
func (g GroupStats) String() string {
	return fmt.Sprintf("%s: count=%d sum=%d min=%d max=%d", g.Key, g.Count, g.Sum, g.Min, g.Max)
}
