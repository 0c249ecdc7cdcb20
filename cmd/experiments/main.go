// Command experiments regenerates every figure and table of the paper's
// evaluation section on the deterministic simulation engine, printing each
// as a textual table of the corresponding curves plus shape-level findings.
//
// Usage:
//
//	experiments [-run fig1,fig2,fig7,fig8,competitive,spanning,reorder,sweep|all] [-samples N] [-quick]
//
// -quick shrinks the workloads so the full suite runs in well under a
// second; the default sizes match the paper's (Table 3).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/clock"
	"repro/internal/experiments"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids (fig1,fig2,fig7,fig8,competitive,spanning,reorder,sweep) or 'all'")
	samples := flag.Int("samples", 20, "rows per rendered series table")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]

	type exp struct {
		id  string
		run func() (*experiments.Result, error)
	}
	var f7 experiments.Fig7Config
	var f8 experiments.Fig8Config
	var f1 experiments.Fig1Config
	var cc experiments.CompetitiveConfig
	var sp experiments.SpanningConfig
	var ro experiments.ReorderConfig
	if *quick {
		f7 = experiments.Fig7Config{RRows: 200, DistinctA: 50}
		f8 = experiments.Fig8Config{Rows: 200}
		f1 = experiments.Fig1Config{Rows: 100}
		cc = experiments.CompetitiveConfig{Rows: 120, DistinctA: 30}
		sp = experiments.SpanningConfig{Rows: 60, StallAfter: 10, StallFor: 5 * clock.Second}
		ro = experiments.ReorderConfig{Rows: 400}
	}

	list := []exp{
		{"fig1", func() (*experiments.Result, error) { return experiments.Fig1(f1) }},
		{"fig2", func() (*experiments.Result, error) { return experiments.Fig2(f1) }},
		{"fig7", func() (*experiments.Result, error) { return experiments.Fig7(f7) }},
		{"fig8", func() (*experiments.Result, error) { return experiments.Fig8(f8) }},
		{"competitive", func() (*experiments.Result, error) { return experiments.Competitive(cc) }},
		{"spanning", func() (*experiments.Result, error) { return experiments.Spanning(sp) }},
		{"reorder", func() (*experiments.Result, error) { return experiments.Reorder(ro) }},
	}

	ok := true
	for _, e := range list {
		if !all && !want[e.id] {
			continue
		}
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			ok = false
			continue
		}
		fmt.Println(res.Render(*samples))
	}

	// Parameter sweeps around the two headline figures.
	if all || want["sweep"] {
		rows := 400
		if *quick {
			rows = 120
		}
		if sw, err := experiments.Fig8LatencySweep(rows, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sweep-fig8: %v\n", err)
			ok = false
		} else {
			fmt.Println(sw.Render())
		}
		if sw, err := experiments.Fig7SelectivitySweep(rows, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sweep-fig7: %v\n", err)
			ok = false
		} else {
			fmt.Println(sw.Render())
		}
	}
	if !ok {
		os.Exit(1)
	}
}
