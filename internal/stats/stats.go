// Package stats collects and renders the time-series measurements behind the
// paper's figures: cumulative result counts over time (Figures 7(i), 8) and
// cumulative index probes over time (Figure 7(ii)).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
)

// Point is one sample of a cumulative counter.
type Point struct {
	T clock.Time
	V float64
}

// Series is a monotone step series of (time, value) samples.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample; times must be non-decreasing.
func (s *Series) Add(t clock.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Inc appends a sample one higher than the last (cumulative counting).
func (s *Series) Inc(t clock.Time) {
	last := 0.0
	if n := len(s.Points); n > 0 {
		last = s.Points[n-1].V
	}
	s.Add(t, last+1)
}

// At returns the series value at time t (step interpolation; 0 before the
// first sample).
func (s *Series) At(t clock.Time) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Final returns the last value, or 0 if empty.
func (s *Series) Final() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// End returns the time of the last sample.
func (s *Series) End() clock.Time {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].T
}

// Table renders several series side by side at n evenly spaced times — the
// textual analogue of a figure with multiple curves.
func Table(end clock.Time, n int, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "time(s)")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for i := 0; i <= n; i++ {
		t := clock.Time(int64(end) * int64(i) / int64(n))
		fmt.Fprintf(&b, "%12.1f", t.Seconds())
		for _, s := range series {
			fmt.Fprintf(&b, " %14.0f", s.At(t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AreaUnder approximates the integral of the series from 0 to end — the
// online-metric summary statistic (higher = more results delivered sooner).
func (s *Series) AreaUnder(end clock.Time) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	area := 0.0
	prevT := clock.Time(0)
	prevV := 0.0
	for _, p := range s.Points {
		if p.T > end {
			break
		}
		area += prevV * (p.T - prevT).Seconds()
		prevT, prevV = p.T, p.V
	}
	area += prevV * (end - prevT).Seconds()
	return area
}
