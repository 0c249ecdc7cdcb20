package eddy

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/clock"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/stem"
)

// checkShellPristine asserts that a router+engine shell is indistinguishable
// from a freshly constructed one: every run-scoped counter and error slot at
// its zero value, every module's state empty. It is the
// contract the server's plan cache relies on when it pools shells across
// EXECUTEs. An idle shell holds no events channel: a run borrows one from the
// process-wide pool and wind-down hands it back empty.
func checkShellPristine(t *testing.T, r *Router, eng *Concurrent) {
	t.Helper()
	if got := r.Routed(); got != 0 {
		t.Errorf("routed = %d, want 0", got)
	}
	if got := r.Stuck(); got != 0 {
		t.Errorf("stuck = %d, want 0", got)
	}
	for i, s := range r.SteMs() {
		if got := s.Size(); got != 0 {
			t.Errorf("stem %d size = %d, want 0", i, got)
		}
		if got := s.Stats(); !reflect.DeepEqual(got, stem.Stats{}) {
			t.Errorf("stem %d stats = %+v, want zero", i, got)
		}
	}
	for i, a2 := range r.AMs() {
		if got := a2.Stats(); !reflect.DeepEqual(got, am.Stats{}) {
			t.Errorf("am %d stats = %+v, want zero", i, got)
		}
	}

	if eng.inflight != 0 {
		t.Errorf("inflight = %d, want 0", eng.inflight)
	}
	if eng.outputs != nil {
		t.Errorf("outputs not nil: %d entries", len(eng.outputs))
	}
	if eng.err != nil {
		t.Errorf("err = %v, want nil", eng.err)
	}
	if eng.colRouter != nil {
		t.Error("columnar run state survived Reset")
	}
	if eng.OnOutput != nil || eng.OnOutputCols != nil {
		t.Error("an output hook survived Reset")
	}
	for i := range eng.costEWMA {
		if got := eng.costEWMA[i].Load(); got != 0 {
			t.Errorf("costEWMA[%d] = %d, want 0", i, got)
		}
		if got := eng.waiting[i].Load(); got != 0 {
			t.Errorf("waiting[%d] = %d, want 0", i, got)
		}
	}
	select {
	case <-eng.done:
		t.Error("done channel still closed after Reset")
	default:
	}
	if eng.events != nil {
		t.Errorf("idle shell holds an events channel (%d entries queued)", len(eng.events))
	}
	if d := &eng.in; len(d.jobs)+len(d.evs)+len(d.later) != 0 || d.head != 0 || d.ctx != nil {
		t.Errorf("inline queues not empty: %d jobs, %d events, %d delayed", len(d.jobs), len(d.evs), len(d.later))
	}
	for mod, ib := range eng.inboxes {
		ib.mu.Lock()
		if ib.closed || len(ib.items) != 0 {
			t.Errorf("inbox %d not reopened empty (closed=%v items=%d)", mod, ib.closed, len(ib.items))
		}
		ib.mu.Unlock()
	}
}

// resetShell applies the full pooled-reuse reset sequence the server uses
// between EXECUTEs: module state through the router, run state through the
// engine, a fresh policy, a fresh clock.
func resetShell(t *testing.T, r *Router, eng *Concurrent) {
	t.Helper()
	pol, err := policy.ByName("benefitcost", 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Reset(pol)
	eng.Reset()
	eng.SetClock(clock.NewReal(0.00002))
}

// TestResetShellIndistinguishableFromFresh runs one shell repeatedly —
// Reset between runs — and asserts that after each Reset the shell's state
// is pristine, each rerun reproduces the oracle result multiset, and no run
// leaves a goroutine behind (the zero-leak contract extends to reuse). The
// paced query runs on goroutines, the unpaced one inline.
func TestResetShellIndistinguishableFromFresh(t *testing.T) {
	for _, q := range []*query.Q{twoTableQuery(t), unpaced(twoTableQuery(t))} {
		resetShellRuns(t, q)
	}
}

func resetShellRuns(t *testing.T, q *query.Q) {
	baseline := runtime.NumGoroutine()
	want := oracle.Compute(q)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	for run := 0; run < 3; run++ {
		outs, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := make(oracle.Result)
		for _, o := range outs {
			got[o.T.ResultKey()]++
		}
		missing, extra := oracle.Diff(want, got)
		if len(missing) > 0 || len(extra) > 0 {
			t.Fatalf("run %d: %d missing, %d extra results", run, len(missing), len(extra))
		}
		if r.Stuck() != 0 {
			t.Fatalf("run %d: %d stuck tuples", run, r.Stuck())
		}
		waitGoroutines(t, baseline)
		resetShell(t, r, eng)
		checkShellPristine(t, r, eng)
	}
}

// TestResetDetachesSharedState pins the Reset contract for attached
// (shared-state) SteMs, which the server's plan cache relies on when it
// pools shells for queries riding catalog-owned shared SteMs: Reset must
// DETACH — clear only per-run state (pending bounces, stats, EOT marks) —
// and never clear the shared dictionaries, which concurrent queries may be
// probing and later executions must find intact. A reset shell reruns
// against the same attachment and must reproduce the oracle multiset.
func TestResetDetachesSharedState(t *testing.T) {
	q := twoTableQuery(t)
	want := oracle.Compute(q)
	ss, err := stem.BuildShared(stem.SharedConfig{KeyCols: stem.JoinCols(q, 1)}, q.AMs[q.AMsOn(1)[0]].Data.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	r, err := NewRouter(q, Options{SharedFor: func(tbl int) *stem.SharedState {
		if tbl == 1 {
			return ss
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	size := r.SteMs()[1].Size() // the attached SteM reads the shared dictionary
	if size == 0 {
		t.Fatal("attached SteM is empty before any run")
	}
	eng := NewConcurrent(r, clock.NewReal(0.00002))
	for run := 0; run < 3; run++ {
		outs, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := make(oracle.Result)
		for _, o := range outs {
			got[o.T.ResultKey()]++
		}
		missing, extra := oracle.Diff(want, got)
		if len(missing) > 0 || len(extra) > 0 {
			t.Fatalf("run %d: %d missing, %d extra results", run, len(missing), len(extra))
		}
		resetShell(t, r, eng)
		attached := r.SteMs()[1]
		if gotSize := attached.Size(); gotSize != size {
			t.Fatalf("run %d: Reset cleared the shared dictionaries: size %d, want %d", run, gotSize, size)
		}
		if gotStats := attached.Stats(); !reflect.DeepEqual(gotStats, stem.Stats{}) {
			t.Errorf("run %d: attached stats = %+v, want zero after Reset", run, gotStats)
		}
	}
}

// TestResetAfterCanceledRun: a shell whose previous run was canceled
// mid-flight (batches stranded in inboxes) must
// still reset to pristine and produce complete results on the next run —
// the plan cache only pools clean shells, but Reset itself must not depend
// on that.
func TestResetAfterCanceledRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := bigTwoTableQuery(t)
	want := oracle.Compute(q)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewConcurrent(r, clock.NewReal(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := eng.RunContext(ctx); err == nil {
		t.Fatal("want cancellation error")
	}
	waitGoroutines(t, baseline)

	resetShell(t, r, eng)
	checkShellPristine(t, r, eng)

	eng.SetClock(clock.NewReal(0.00002))
	outs, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	missing, extra := oracle.Diff(want, got)
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("rerun after cancel: %d missing, %d extra results", len(missing), len(extra))
	}
	waitGoroutines(t, baseline)
}

// TestBuiltEngineIsSmall pins what a handle costs to build: each INSERT kills
// every cached plan, so a serving process constructs engines all day, and the
// 40 kB events buffer used to be most of one. It is run-scoped now.
func TestBuiltEngineIsSmall(t *testing.T) {
	r, err := NewRouter(twoTableQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	engs := make([]*Concurrent, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engs {
		engs[i] = NewConcurrent(r, nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("NewConcurrent allocates %d bytes, want under 1 kB", per)
	} else {
		t.Logf("NewConcurrent allocates %d bytes", per)
	}
	if engs[0].events != nil {
		t.Error("a built engine holds an events channel before it runs")
	}
}
