package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// requestBytes is a plan's complete request sequence as sent on the wire.
func requestBytes(p *plan) string {
	var b strings.Builder
	for _, ops := range [][]op{p.warm, p.ops} {
		for _, o := range ops {
			b.WriteString(o.path)
			b.WriteString(o.body)
		}
	}
	return b.String()
}

func TestSeedDeterminesRequests(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := newPlan(w, 7, 50, false), newPlan(w, 7, 50, false), newPlan(w, 8, 50, false)
		if requestBytes(a) != requestBytes(b) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		if requestBytes(a) == requestBytes(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

func TestP50CoversPrimaryOpOnly(t *testing.T) {
	lr := &loadRun{w: workloadByName("small_requests"), win: &window{}}
	for _, slow := range []time.Duration{1, 1, 5} {
		// EXECUTEs at 50 ms, the primary ad-hoc SELECTs at 2 ms; the last
		// segment is disturbed: five times slower.
		lr.win.segs = append(lr.win.segs, segmentRun{wall: slow * time.Second, samples: []sample{
			{kind: opExecute, firstRow: slow * 40 * time.Millisecond, end: slow * 50 * time.Millisecond},
			{kind: opSmall, firstRow: slow * time.Millisecond, end: slow * 2 * time.Millisecond},
			{kind: opExecute, firstRow: slow * 40 * time.Millisecond, end: slow * 50 * time.Millisecond},
			{kind: opSmall, firstRow: slow * time.Millisecond, end: slow * 2 * time.Millisecond},
		}})
	}
	m, _ := lr.timeMetrics()
	if m["op_p50_ms"] != 2 || m["first_row_p50_ms"] != 1 {
		t.Errorf("op_p50_ms %v, first_row_p50_ms %v: want the primary op's 2 and 1 of the median segment", m["op_p50_ms"], m["first_row_p50_ms"])
	}
	if m["ops_per_s"] != 4 {
		t.Errorf("ops_per_s %v: want both kinds counted, 4 ops in the median segment's 1 s", m["ops_per_s"])
	}
}

// TestSmoke runs every workload at 1/200 of its op count against a freshly
// built stemsd, in both modes, and checks the output contract: every metric
// BENCHMARK.json names, once, finite, under its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots stemsd")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.quick = true
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := &workloads[i]
		if sw.Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, the harness %s", i, sw.Name, w.name)
		}
		// The op and client counts BENCHMARK.json states are the harness's.
		if want := fmt.Sprintf("%d closed-loop client", w.clients); !strings.Contains(sw.Why, want) {
			t.Errorf("%s: BENCHMARK.json's why does not say %q", w.name, want)
		}
		if want := fmt.Sprintf("%d ops", w.ops); !strings.Contains(sw.Why, want) {
			t.Errorf("%s: BENCHMARK.json's why does not say %q", w.name, want)
		}
		p := newPlan(w, 1, w.opsFor(float64(spec.RunSeconds)/200, float64(spec.RunSeconds), e.segments()), e.quick)
		lr, err := e.runLoad(w, p, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if lr.win.failed > 0 || lr.stopErr != nil {
			t.Fatalf("%s: %d failed ops (%s), shutdown: %v", w.name, lr.win.failed, lr.win.firstFailure, lr.stopErr)
		}
		layers, err := e.perLayer(lr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, mode := range []struct {
			specs []metricSpec
			got   map[string]float64
		}{{spec.EndToEnd, lr.endToEnd()}, {spec.PerLayer, layers}} {
			if err := checkMetrics(mode.specs, mode.got); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			res := &runResult{metrics: mode.got, attempted: len(lr.win.samples())}
			if err := json.Unmarshal([]byte(resultLine(mode.specs, res)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !line.Correct || line.Attempted != len(p.ops) || len(line.Metrics) != len(mode.specs) {
				t.Errorf("%s: result line reports correct=%v attempted=%d with %d metrics", w.name, line.Correct, line.Attempted, len(line.Metrics))
			}
			for _, ms := range mode.specs {
				m, ok := line.Metrics[ms.Name]
				if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != ms.Unit {
					t.Errorf("%s: metric %s: got %+v, want a finite value in %s", w.name, ms.Name, m, ms.Unit)
				}
			}
		}
		times, _ := lr.timeMetrics()
		for _, ms := range []map[string]float64{lr.endToEnd(), times} {
			for name, v := range ms {
				// CPU time comes in 10 ms ticks: a smoke-sized window may read 0.
				if v <= 0 && name != "server_cpu_ms_per_op" {
					t.Errorf("%s: %s is %v, want > 0", w.name, name, v)
				}
			}
		}
	}
}
