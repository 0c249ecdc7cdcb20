package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if s.Final() != 0 || s.At(5) != 0 || s.End() != 0 {
		t.Error("empty series must be zero everywhere")
	}
	s.Add(10, 1)
	s.Add(20, 3)
	s.Inc(30)
	if s.Final() != 4 {
		t.Errorf("Final = %v", s.Final())
	}
	if s.At(5) != 0 || s.At(10) != 1 || s.At(15) != 1 || s.At(25) != 3 || s.At(100) != 4 {
		t.Error("step interpolation wrong")
	}
	if s.End() != 30 {
		t.Errorf("End = %v", s.End())
	}
}

func TestAreaUnderMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSeries("x")
		cum := 0.0
		for i, v := range vals {
			cum += float64(v)
			s.Add(clock.Time(int64(i+1)*int64(clock.Second)), cum)
		}
		end := clock.Time(int64(len(vals)+1) * int64(clock.Second))
		area := s.AreaUnder(end)
		// Bounds: 0 <= area <= final * horizon.
		return area >= 0 && area <= s.Final()*end.Seconds()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAreaUnderExact(t *testing.T) {
	s := NewSeries("x")
	s.Add(clock.Time(clock.Second), 1)
	// 1 from t=1s to t=3s -> area 2.
	if got := s.AreaUnder(clock.Time(3 * clock.Second)); got != 2 {
		t.Errorf("AreaUnder = %v, want 2", got)
	}
}

func TestTableRendering(t *testing.T) {
	a := NewSeries("alpha")
	a.Add(clock.Time(clock.Second), 5)
	b := NewSeries("beta")
	b.Add(clock.Time(2*clock.Second), 7)
	out := Table(clock.Time(2*clock.Second), 2, a, b)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("headers missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 sample rows
		t.Errorf("table has %d lines", len(lines))
	}
}
