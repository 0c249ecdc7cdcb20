package clock

import (
	"testing"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	ts := Time(0).Add(3 * Second)
	if ts.Seconds() != 3 {
		t.Errorf("Seconds = %v", ts.Seconds())
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Error("Duration.Seconds wrong")
	}
}

// TestWaitOrDone pins the one wait the concurrent engine calls: it lasts the
// scaled duration, a closed done channel cuts it short, and a wait that
// scales to nothing does not block.
func TestWaitOrDone(t *testing.T) {
	// Factor 1e-3: one virtual second per wall millisecond.
	c := NewReal(0.001)
	open := make(chan struct{})
	start := time.Now()
	if !c.WaitOrDone(20*Second, open) {
		t.Fatal("wait reported done on an open channel")
	}
	if wall := time.Since(start); wall < 20*time.Millisecond {
		t.Errorf("20 virtual seconds at 0.001 took %v of wall time, want >= 20ms", wall)
	}
	if now := c.Now(); now < Time(20*Second) {
		t.Errorf("virtual clock reads %v after a 20 s wait", now)
	}

	closed := make(chan struct{})
	close(closed)
	start = time.Now()
	if c.WaitOrDone(3600*Second, closed) { // 3.6 s of wall time if it waited
		t.Error("wait on a closed done channel reported completion")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("wait on a closed done channel took %v", wall)
	}

	for _, d := range []Duration{0, -5, 1} { // 1 ns scales to 0 wall ns
		if !c.WaitOrDone(d, closed) {
			t.Errorf("WaitOrDone(%d) = false, want true without waiting", d)
		}
	}
}

func TestNewRealDefaultsFactor(t *testing.T) {
	c := NewReal(0) // factor 1: virtual time is wall time
	time.Sleep(time.Millisecond)
	if now := c.Now(); now < Time(Millisecond) || now > Time(10*Second) {
		t.Errorf("Now = %v after 1ms at the default factor", now)
	}
}
