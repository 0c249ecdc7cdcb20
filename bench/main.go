// Command bench (stemsbench) is the repository's benchmark: it boots the real
// cmd/stemsd binary as a child process, drives one of four fixed, seeded
// workloads at it over HTTP, verifies every reply against the generator's
// reference, and prints the metrics BENCHMARK.json names.
//
//	go run ./bench                       every workload: end-to-end, then per-layer
//	go run ./bench -workload join_heavy  one workload, end-to-end metrics
//	go run ./bench -workload join_heavy -trace 1   its per-layer metrics (traced run)
//	go run ./bench -aa 3                 A/A self-check: three sets on one binary
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is non-zero when
// any operation failed or stemsd did not shut down cleanly. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds live. The harness emits exactly what it declares.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics verifies a run emitted exactly the declared metrics, each
// finite.
func checkMetrics(specs []metricSpec, got map[string]float64) error {
	declared := map[string]bool{}
	for _, m := range specs {
		v, ok := got[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		case declared[m.Name]:
			return fmt.Errorf("metric %s declared twice in BENCHMARK.json", m.Name)
		case !ok:
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		declared[m.Name] = true
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// newEnv builds stemsd once into a fresh directory under bench/out.
func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: dir}
	if e.bin, err = buildStemsd(root, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.outDir) }

// header is the provenance every output starts with.
func header(e *env, spec *benchSpec, seed int64, seconds float64) string {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stemsbench  commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  seconds %g\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(&b, "  %-18s %6d ops in %d segments, %d closed-loop client(s), stemsd flags %v\n",
			w.name, w.opsFor(seconds, float64(spec.RunSeconds), e.segments()), e.segments(), w.clients, w.flags)
	}
	return b.String()
}

// timeSpecs picks the time metrics' declarations out of the per-layer list.
func (s *benchSpec) timeSpecs() []metricSpec {
	var out []metricSpec
	for _, m := range s.PerLayer {
		if slices.Contains(timeMetricNames, m.Name) {
			out = append(out, m)
		}
	}
	return out
}

func printMetric(m metricSpec, v float64) {
	bound := ""
	if m.Bound > 0 {
		bound = fmt.Sprintf("  bound %g%%", m.Bound*100)
	}
	fmt.Printf("  %-40s %14.4f %-6s %s is better%s\n", m.Name, v, m.Unit, m.Better, bound)
}

// printMetrics prints one run's metrics by name with unit, direction and
// bound, in BENCHMARK.json's order; after an untraced run also the time
// metrics (declared per-layer, so without a bound) and how they and the
// set-ups varied within the run.
func printMetrics(title string, specs, timeSpecs []metricSpec, res *runResult) {
	fmt.Printf("%s  (failed_ops %d / attempted_ops %d)\n", title, res.failed, res.attempted)
	for _, m := range specs {
		printMetric(m, res.metrics[m.Name])
	}
	if res.times != nil {
		fmt.Printf("  set-ups, s: %.3g\n  time metrics of this window (not gated; median over segments):\n", res.setups)
		for _, m := range timeSpecs {
			printMetric(m, res.times[m.Name])
			fmt.Printf("    by segment: %.4g\n", res.bySegment[m.Name])
		}
	}
	if res.note != "" {
		fmt.Printf("  first failure: %s\n", res.note)
	}
}

// resultLine is the driver-facing last line of standard output.
func resultLine(specs []metricSpec, res *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]mv{}}
	for _, m := range specs {
		out.Metrics[m.Name] = mv{res.metrics[m.Name], m.Unit}
	}
	b, _ := json.Marshal(out) // plain maps and floats checked finite: cannot fail
	return string(b)
}

func main() {
	wname := flag.String("workload", "", "run only this workload and end with the JSON result line (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated dataset and request sequence")
	seconds := flag.Float64("seconds", 0, "size the fixed op counts for a window of about this many seconds on the reference box (default: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and the per-layer metrics")
	aa := flag.Int("aa", 0, "A/A self-check: run this many full untraced sets on one binary and compare spread with bound")
	flag.Parse()
	if err := realMain(*wname, *seed, *seconds, *traced != 0, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(wname string, seed int64, seconds float64, traced bool, aa int) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	spec, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	fmt.Print(header(e, spec, seed, seconds))

	if aa > 0 {
		return e.selfCheck(spec, seed, seconds, aa)
	}
	// one runs a workload in one mode and prints its metrics by name.
	one := func(w *workload, traced bool) (*runResult, []metricSpec, error) {
		specs, title := spec.EndToEnd, w.name+" end-to-end (tracing off)"
		if traced {
			specs, title = spec.PerLayer, w.name+" per-layer (traced run)"
		}
		res, err := e.run(w, seed, seconds, float64(spec.RunSeconds), traced)
		if err != nil {
			return nil, nil, err
		}
		if err := checkMetrics(specs, res.metrics); err != nil {
			return nil, nil, err
		}
		printMetrics(title, specs, spec.timeSpecs(), res)
		return res, specs, nil
	}
	failed := 0
	if wname != "" {
		w := workloadByName(wname)
		if w == nil {
			return fmt.Errorf("unknown workload %q", wname)
		}
		res, specs, err := one(w, traced)
		if err != nil {
			return err
		}
		fmt.Println(resultLine(specs, res))
		failed = res.failed
	} else {
		for i := range workloads {
			for _, traced := range []bool{false, true} {
				res, _, err := one(&workloads[i], traced)
				if err != nil {
					return err
				}
				failed += res.failed
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfCheck is the A/A run: n untraced sets of every workload on one binary;
// per workload × end-to-end metric it prints min/median/max and the spread
// (max−min over median) as a share of the bound, and fails if any spread
// exceeds its bound. The time metrics follow, with their spread and no bound.
func (e *env) selfCheck(spec *benchSpec, seed int64, seconds float64, n int) error {
	over := 0
	fmt.Printf("| workload | metric | min | median | max | spread | bound | spread÷bound |\n|---|---|---|---|---|---|---|---|\n")
	for i := range workloads {
		w := &workloads[i]
		vals := map[string][]float64{}
		for set := 0; set < n; set++ {
			res, err := e.run(w, seed, seconds, float64(spec.RunSeconds), false)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d operations failed: %s", w.name, res.failed, res.note)
			}
			for _, ms := range []map[string]float64{res.metrics, res.times} {
				for k, v := range ms {
					vals[k] = append(vals[k], v)
				}
			}
		}
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.timeSpecs()...) {
			v := vals[m.Name]
			sort.Float64s(v)
			med := median(v)
			spread := (v[len(v)-1] - v[0]) / med
			if m.Bound == 0 {
				fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.2f%% | none | |\n", w.name, m.Name, v[0], med, v[len(v)-1], spread*100)
				continue
			}
			flag := ""
			if spread > m.Bound {
				flag = " OVER"
				over++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.2f%% | %g%% | %.2f%s |\n",
				w.name, m.Name, v[0], med, v[len(v)-1], spread*100, m.Bound*100, spread/m.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric spreads exceed their bound", over)
	}
	return nil
}
