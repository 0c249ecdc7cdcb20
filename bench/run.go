// run.go runs one workload end to end against a stemsd child and turns what
// the clients saw and what the server exposes into the benchmark's metrics.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// workload is one fixed traffic mix. ops is the measured op count the
// driver's run (-seconds = BENCHMARK.json's run_seconds) executes on every
// commit; it was sized once for that many seconds on the 2-vCPU reference
// box and is frozen. Another -seconds scales it linearly, which only the
// smoke test uses.
type workload struct {
	name       string
	flags      []string // stemsd flags beyond the harness's -addr/-data-dir/-spill-dir/-pprof
	clients    int      // closed-loop callers
	ops        int      // measured ops at run_seconds
	cycle      int      // ops per indivisible cycle of the mix
	warmOps    int      // warm-up ops of the workload's own mix, after warmJoins J(k)
	primary    opKind   // the op whose latency the end-to-end medians report
	subscribes bool     // a standing query is held open
}

var workloads = []workload{
	{name: "join_heavy", clients: 2, ops: 840, cycle: 1, warmOps: 40, primary: opJoin},
	{name: "small_requests", clients: 2, ops: 42000, cycle: 2, warmOps: 500, primary: opSmall},
	{name: "ingest_subscribe", clients: 1, ops: 24000, cycle: 1, warmOps: 500, primary: opIngest, subscribes: true},
	{name: "shared_read_write", flags: []string{"-shared-stems"}, clients: 1, ops: 5400, cycle: 5, warmOps: 250, primary: opJoin},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opsFor scales the frozen op count to a run of the given length, in whole
// cycles of the mix per segment.
func (w *workload) opsFor(seconds, runSeconds float64, nSegs int) int {
	unit := w.cycle * nSegs
	return max(int(math.Round(float64(w.ops)*seconds/runSeconds/float64(unit))), 1) * unit
}

// env is what every run of one harness invocation shares.
type env struct {
	root   string // module root
	outDir string // bench/out/run-*: binary, data dirs; removed at exit
	bin    string // the stemsd binary built once into outDir
	nextID int

	// quick is the smoke test's size: one set-up, two segments, two module
	// repetitions, and newPlan's quick plan.
	quick bool
}

// segments is how many parts the measured window is cut into.
func (e *env) segments() int {
	if e.quick {
		return 2
	}
	return segments
}

// setupReps is how many times a run sets up from scratch: setup_s is their
// median, and the last set-up serves the measured window.
func (e *env) setupReps() int {
	if e.quick {
		return 1
	}
	return 3
}

// moduleReps is how often each module micro-driver repeats.
func (e *env) moduleReps() int {
	if e.quick {
		return 2
	}
	return 15
}

func (e *env) dataDir() (string, error) {
	e.nextID++
	dir := filepath.Join(e.outDir, fmt.Sprintf("data-%d", e.nextID))
	return dir, os.Mkdir(dir, 0o755)
}

// runResult is one run's metrics by name, plus the failure accounting the
// driver gates on.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	note      string // first failure, for the operator
	// An untraced run also prints, ungated, the time metrics (times), with each
	// segment's figure (bySegment) and each set-up's time (setups, s), so that
	// the operator sees how steady the box was during the run.
	times     map[string]float64
	bySegment map[string][]float64
	setups    []float64
}

// loadRun is the outcome of the load phase: the measured window plus the
// server-side numbers scraped around it.
type loadRun struct {
	w         *workload
	p         *plan
	win       *window
	setups    []float64 // every set-up's time; setup_s is their median
	liveHeap  float64
	rssPeakMB float64
	before    counters
	after     counters
	explains  []explainTrace
	stopErr   error
}

// runLoad sets stemsd up e.setupReps() times from scratch, runs the measured
// window against the last one, and tears it down.
func (e *env) runLoad(w *workload, p *plan, explain bool) (*loadRun, error) {
	lr := &loadRun{w: w, p: p}
	var sv *target
	for rep := 0; rep < e.setupReps(); rep++ {
		if sv != nil {
			if err := sv.tearDown(); err != nil {
				return nil, err
			}
		}
		dir, err := e.dataDir()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if sv, err = setUp(e.bin, dir, w, p); err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
	}
	err := lr.measure(sv, e.segments(), explain)
	lr.stopErr = sv.tearDown()
	if err != nil {
		return nil, err
	}
	return lr, nil
}

// measure runs the window and the scrapes around it.
func (lr *loadRun) measure(sv *target, nSegs int, explain bool) error {
	c, p := sv.c, lr.p
	var err error
	if lr.before, err = c.scrapeMetrics(); err != nil {
		return err
	}
	if lr.win, err = sv.runWindow(lr.w.clients, nSegs); err != nil {
		return err
	}
	if lr.after, err = c.scrapeMetrics(); err != nil {
		return err
	}
	if lr.liveHeap, err = c.scrapeLiveHeap(); err != nil {
		return err
	}
	if lr.rssPeakMB, err = c.rssPeakMB(); err != nil {
		return err
	}
	if lr.win.failed > 0 {
		return nil
	}
	// What the server says it took must be what the plan sent, and a standing
	// query must have delivered exactly the table: snapshot + deltas == the
	// final orders row count.
	sent := 0
	for _, ops := range [][]op{p.warm, p.ops} {
		for _, o := range ops {
			sent += len(o.rows)
		}
	}
	if got := int(lr.after["stemsd_inserted_rows_total"]); got != sent {
		lr.win.failed, lr.win.firstFailure = 1, fmt.Sprintf("stemsd counts %d inserted rows, the plan sent %d", got, sent)
	} else if sv.sub != nil && sv.sub.snapshot+sv.sub.deltas != p.finalOrders {
		lr.win.failed, lr.win.firstFailure = 1, fmt.Sprintf("snapshot %d + deltas %d, but orders ends at %d rows",
			sv.sub.snapshot, sv.sub.deltas, p.finalOrders)
	} else if explain {
		lr.explains, err = collectExplains(c, p)
	}
	return err
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (which it sorts); a median of
// an even count averages the two middle values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if q == 0.5 && len(v)%2 == 0 {
		return (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies extracts, in ms, f of every successful sample of the given kind.
func latencies(samples []sample, kind opKind, f func(sample) time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind && !s.failed {
			out = append(out, ms(f(s)))
		}
	}
	return out
}

func opLatency(s sample) time.Duration       { return s.end - s.start }
func firstRowLatency(s sample) time.Duration { return s.firstRow - s.start }
func ackLatency(s sample) time.Duration      { return s.ack - s.start }

// timeMetricNames are the four figures that scale with the speed of the box:
// they are reported by every run, as per-layer metrics in BENCHMARK.json (no
// bound), because on the shared reference box identical code reads a third
// slower for minutes at a time and no bound the benchmark may set holds.
var timeMetricNames = []string{"ops_per_s", "op_p50_ms", "first_row_p50_ms", "server_cpu_ms_per_op"}

// timeMetrics computes throughput, the primary op's median latencies and
// stemsd's CPU time per op. Each is the median over the window's segments of
// the per-segment figure, which bySegment returns as measured: a disturbance
// of the box that lasts a few seconds moves a few segments and leaves their
// median alone, where a mean over the window would move with it.
func (lr *loadRun) timeMetrics() (metrics map[string]float64, bySegment map[string][]float64) {
	var rate, p50, first, cpu []float64
	for _, sg := range lr.win.segs {
		n := float64(len(sg.samples))
		rate = append(rate, n/sg.wall.Seconds())
		cpu = append(cpu, sg.cpuS*1000/n)
		p50 = append(p50, median(latencies(sg.samples, lr.w.primary, opLatency)))
		first = append(first, median(latencies(sg.samples, lr.w.primary, firstRowLatency)))
	}
	bySegment = map[string][]float64{
		"ops_per_s": rate, "op_p50_ms": p50, "first_row_p50_ms": first, "server_cpu_ms_per_op": cpu,
	}
	metrics = map[string]float64{}
	for name, v := range bySegment {
		metrics[name] = median(slices.Clone(v))
	}
	return metrics, bySegment
}

// endToEnd computes the end-to-end metrics of a load run: the ones a bound
// holds on. The allocation counts cover the whole window.
func (lr *loadRun) endToEnd() map[string]float64 {
	ops := float64(len(lr.win.samples()))
	return map[string]float64{
		"setup_s":                median(slices.Clone(lr.setups)),
		"server_allocs_per_op":   lr.win.allocs.mallocs / ops,
		"server_alloc_kb_per_op": lr.win.allocs.totalAlloc / 1000 / ops,
		"heap_live_mb":           lr.liveHeap / 1e6,
	}
}

// run executes one workload for one seed and returns the metric set the
// mode asks for: end-to-end with tracing off, per-layer with it on.
func (e *env) run(w *workload, seed int64, seconds, runSeconds float64, traced bool) (*runResult, error) {
	if traced {
		// The traced run is its own run: a shorter load window for the
		// counter-derived layer metrics, then the in-process span replay.
		seconds *= tracedLoadShare
	}
	p := newPlan(w, seed, w.opsFor(seconds, runSeconds, e.segments()), e.quick)
	lr, err := e.runLoad(w, p, traced)
	if err != nil {
		return nil, err
	}
	res := &runResult{attempted: len(lr.win.samples()), failed: lr.win.failed, note: lr.win.firstFailure}
	if lr.stopErr != nil {
		// An unclean shutdown fails the run even when every op passed.
		res.failed++
		res.note = lr.stopErr.Error()
	}
	if !traced {
		res.metrics, res.setups = lr.endToEnd(), lr.setups
		res.times, res.bySegment = lr.timeMetrics()
		return res, nil
	}
	res.metrics, err = e.perLayer(lr)
	return res, err
}
