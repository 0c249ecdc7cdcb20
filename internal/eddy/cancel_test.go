package eddy

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
)

// waitGoroutines polls until the goroutine count returns to the baseline —
// the zero-leak contract of RunContext's shutdown path.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("leaked goroutines: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCancelMidQuery cancels a slow run mid-route and verifies
// the engine returns promptly with a wrapped context error and unwinds
// every goroutine it started.
func TestRunContextCancelMidQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := bigTwoTableQuery(t)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed clock: the 400 millisecond-paced scan rows take ~400ms
	// of real time, so a 5ms deadline always fires while tuples are in
	// flight (the small twoTableQuery can finish under 5ms and flake).
	eng := NewConcurrent(r, clock.NewReal(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.RunContext(ctx)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestRunLeavesNoGoroutines verifies a normally completed run also unwinds
// everything — including the event-channel drainer, which earlier versions
// leaked once per run.
func TestRunLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		q := twoTableQuery(t)
		r, err := NewRouter(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewConcurrent(r, clock.NewReal(0.00002)).Run(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestRunContextPreCanceled: a context canceled before Run starts still
// returns an error wrapping its cause and leaks nothing, on goroutines (paced
// scans) and inline (unpaced).
func TestRunContextPreCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, q := range []*query.Q{twoTableQuery(t), unpaced(twoTableQuery(t))} {
		r, err := NewRouter(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := NewConcurrent(r, clock.NewReal(1)).RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
	}
	waitGoroutines(t, baseline)
}

// unpaced takes the pacing off q's scans, so a small q runs inline.
func unpaced(q *query.Q) *query.Q {
	for i := range q.AMs {
		q.AMs[i].ScanSpec = source.ScanSpec{}
	}
	return q
}

// bigTwoTableQuery joins a 400-row table against a 50-row one — enough
// simulation events (thousands) that the simulator's every-256-events
// context poll is guaranteed to run.
func bigTwoTableQuery(t *testing.T) *query.Q {
	t.Helper()
	rRows := make([][]int64, 400)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(i % 50)}
	}
	sRows := make([][]int64, 50)
	for i := range sRows {
		sRows[i] = []int64{int64(i), int64(i) * 10}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	return query.MustNew(
		[]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			scanAM(0, source.MustTable(rT, rowsOf(rRows)), clock.Millisecond),
			scanAM(1, source.MustTable(sT, rowsOf(sRows)), clock.Millisecond),
		},
	)
}

// TestSimCtxCancel verifies the simulator's polling cancellation without
// touching its default (nil-Ctx, bit-identical) behavior.
func TestSimCtxCancel(t *testing.T) {
	r, err := NewRouter(bigTwoTableQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(); err != nil {
		t.Fatalf("nil-Ctx run must be unaffected: %v", err)
	}

	r2, err := NewRouter(bigTwoTableQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim2 := NewSim(r2)
	sim2.Ctx = ctx
	if _, err := sim2.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sim run: err = %v, want context.Canceled", err)
	}
}
