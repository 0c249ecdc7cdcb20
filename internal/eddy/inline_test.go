package eddy

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
)

// located counts the rows in the places a live row can be under the inline
// driver: an undelivered event (a feedback's Visits − Emitted among them), a
// queued job, or a delayed post.
func (d *inline) located() int64 {
	var n int64
	for _, ev := range d.evs {
		n += eventRows(ev)
	}
	for _, q := range d.jobs[d.head:] {
		n += int64(q.j.b.Len())
	}
	for _, x := range d.later {
		n += eventRows(x.ev)
	}
	return n
}

// inlineOnce runs one seed of an interleaver configuration through the inline
// driver, stepping it here so that every step can be checked, and checks what
// interleaveOnce checks.
func inlineOnce(cfg interleaveConfig, seed int64) error {
	q, r, _, err := interleaveCase(cfg, seed)
	if err != nil {
		return err
	}
	c := NewConcurrent(r, clock.NewReal(0.00002))
	tl := newTally(len(r.Modules()))
	c.OnService = tl.observe
	d := &c.in
	d.ctx, d.s = context.Background(), d
	c.begin(r.Seeds(), nil)
	for step := 0; !c.quiescent(); step++ {
		if n := d.located(); n != c.inflight {
			return fmt.Errorf("step %d: %d rows counted in flight, %d located", step, c.inflight, n)
		}
		if d.head < len(d.jobs) {
			tl.serve(d.jobs[d.head].mod, d.jobs[d.head].j)
		}
		if !d.step() {
			return fmt.Errorf("step %d: %v", step, c.err)
		}
	}
	if n := d.located(); n != 0 {
		return fmt.Errorf("quiescent with %d rows located", n)
	}
	d.empty()
	if c.err != nil {
		return c.err
	}
	if err := checkOutcome(q, r, c.outputs); err != nil {
		return err
	}
	if s := tl.unbalanced(); s != "" {
		return fmt.Errorf("returned with%s", s)
	}
	return nil
}

// TestInline soaks every interleaver configuration through the inline
// driver. It is called directly, so the paced configuration, which a
// Concurrent run gives to goroutines, is covered too. After every step, each
// row counted in flight must be in an undelivered event, a queued job or a
// delayed post.
func TestInline(t *testing.T) { soak(t, "TestInline", inlineOnce) }

// scanOnly is a one-table query whose unpaced scan brings in n rows.
func scanOnly(n int) *query.Q {
	tab := schema.MustTable("R", schema.IntCol("k"))
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = intRow(int64(i))
	}
	return query.MustNew([]*schema.Table{tab}, nil, []query.AMDecl{scanAM(0, source.MustTable(tab, rows), 0)})
}

// TestDriverByRows: a full run whose scans bring in inlineRows rows runs
// inline; one more row and it runs on goroutines. A shell builds its inboxes
// only when it first runs on goroutines.
func TestDriverByRows(t *testing.T) {
	for _, c := range []struct {
		rows   int
		inline bool
	}{{inlineRows, true}, {inlineRows + 1, false}} {
		r, err := NewRouter(scanOnly(c.rows), Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewConcurrent(r, nil)
		in0, go0 := Rounds()
		outs, err := eng.RunContext(context.Background())
		if err != nil || len(outs) != c.rows {
			t.Fatalf("%d rows: %d results, %v", c.rows, len(outs), err)
		}
		in1, go1 := Rounds()
		if inline := in1 > in0 && go1 == go0 && eng.inboxes == nil; inline != c.inline {
			t.Errorf("%d rows: inline %v, want %v (inline rounds +%d, goroutine rounds +%d)",
				c.rows, inline, c.inline, in1-in0, go1-go0)
		}
	}
}

// TestParallelIndexLatencyOverlaps: an index AM with Parallel 4 and declared
// latency L serves N distinct probes in well under N × L: its lookups
// overlap, which a query served inline could not do — so a module that
// declares time keeps its round on goroutines.
func TestParallelIndexLatencyOverlaps(t *testing.T) {
	const (
		n   = 12
		lat = 20 * clock.Millisecond
	)
	rRows := make([][]int64, n)
	sRows := make([][]int64, n)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(10 * i)}
		sRows[i] = []int64{int64(10 * i), int64(100 * i)}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	q := query.MustNew(
		[]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			scanAM(0, source.MustTable(rT, rowsOf(rRows)), 0),
			indexAM(1, source.MustTable(sT, rowsOf(sRows)), []int{0}, lat, 4),
		},
	)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal(1)
	start := clk.Now()
	outs, err := NewConcurrent(r, clk).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wall := clock.Duration(clk.Now() - start)
	if len(outs) != n {
		t.Fatalf("%d results, want %d", len(outs), n)
	}
	if probes := r.AMs()[1].Stats().Probes; probes != n {
		t.Fatalf("%d index lookups, want %d", probes, n)
	}
	if wall >= n*lat/2 {
		t.Errorf("%d lookups at %v each on 4 servers took %v, want under %v",
			n, time.Duration(lat), time.Duration(wall), time.Duration(n*lat/2))
	}
}

// panicky is a module whose every service panics.
type panicky struct{ flow.Module }

func (panicky) Process(*tuple.Tuple, clock.Time) ([]flow.Emission, clock.Duration) { panic("boom") }

// TestInlineModulePanicFailsTheRun: a module that panics while served inline
// fails the run with an error that names it, instead of unwinding through the
// caller; the shell's queues are left empty and no goroutine is left behind.
// The next query on the same plan, on a fresh router, returns the right rows.
func TestInlineModulePanicFailsTheRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q, opts := j2Selection(0, 0)
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sm := len(r.modules) - 1 // the selection's module; SMs come last
	r.modules[sm] = panicky{r.modules[sm]}
	eng := NewConcurrent(r, nil)
	_, err = eng.RunContext(context.Background())
	if want := "eddy: module " + r.modules[sm].Name() + " panicked: boom"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want %q", err, want)
	}
	if eng.inboxes != nil {
		t.Fatal("the run went to goroutines; the test is vacuous")
	}
	if d := &eng.in; len(d.jobs)+len(d.evs)+len(d.later) != 0 || d.ctx != nil {
		t.Errorf("queues not emptied: %d jobs, %d events, %d delayed", len(d.jobs), len(d.evs), len(d.later))
	}
	waitGoroutines(t, baseline)

	r2, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := NewConcurrent(r2, nil).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutcome(q, r2, outs); err != nil {
		t.Error(err)
	}
}

// TestGoroutineModulePanicFailsTheRun is the same failure on goroutines: the
// worker recovers, the eddy releases the job's rows and fails only that run,
// and the wind-down leaves no goroutine behind. The next query on the same
// plan, on a fresh router, returns the right rows.
func TestGoroutineModulePanicFailsTheRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q, opts := j2Selection(0, 0)
	r, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.scanRows = -1 // as if a module declared time: the round runs on goroutines
	sm := len(r.modules) - 1
	r.modules[sm] = panicky{r.modules[sm]}
	eng := NewConcurrent(r, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = eng.RunContext(ctx)
	if want := "eddy: module " + r.modules[sm].Name() + " panicked: boom"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want %q", err, want)
	}
	if eng.inboxes == nil {
		t.Fatal("the run went inline; the test is vacuous")
	}
	waitGoroutines(t, baseline)

	r2, err := NewRouter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2.scanRows = -1
	outs, err := NewConcurrent(r2, nil).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOutcome(q, r2, outs); err != nil {
		t.Error(err)
	}
}
