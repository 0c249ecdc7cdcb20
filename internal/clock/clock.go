// Package clock provides the time model shared by the two execution engines.
//
// The paper's experiments implement remote index lookups "as sleeps of
// identical duration" (Table 3). To regenerate the paper's time-series
// figures deterministically and quickly, the simulation engine runs on a
// virtual clock advanced by a discrete-event loop; the concurrent engine runs
// on a real clock scaled so that a "paper second" takes a millisecond of
// wall time (the scale is eddy.NewConcurrent's; nothing configures it).
package clock

import (
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since query start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Seconds returns the time as floating-point seconds, for experiment output.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Real is the concurrent engine's clock: wall time since NewReal, divided by
// a fixed scale factor. Factor 0.001 makes one virtual second cost one real
// millisecond, so a declared source latency or a paced scan reproduces the
// paper's multi-minute runs in tens of milliseconds. (The simulation engine
// does not use it: it owns time directly via its event queue.)
type Real struct {
	start  time.Time
	factor float64
}

// NewReal returns a real clock with the given scale factor. A factor of 1
// runs in real time; smaller factors run faster.
func NewReal(factor float64) *Real {
	if factor <= 0 {
		factor = 1
	}
	return &Real{start: time.Now(), factor: factor}
}

// Now returns the current virtual time.
func (r *Real) Now() Time {
	real := time.Since(r.start)
	return Time(float64(real) / r.factor)
}

// timerPool recycles wall-clock timers across WaitOrDone calls. Reusing a
// timer after Stop/fire without draining is safe on Go ≥1.23: timer
// channels are unbuffered and Reset guarantees no stale delivery.
var timerPool sync.Pool

// WaitOrDone blocks for the virtual duration d, returning false early when
// done closes. It waits on a pooled timer: the concurrent engine waits out
// every declared source latency and every delayed emission, and a channel +
// timer per call made those waits a top allocation site.
func (r *Real) WaitOrDone(d Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	wall := time.Duration(float64(d) * r.factor)
	if wall <= 0 {
		return true
	}
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(wall)
	} else {
		t.Reset(wall)
	}
	fired := false
	select {
	case <-t.C:
		fired = true
	case <-done:
		t.Stop()
	}
	timerPool.Put(t)
	return fired
}
