package stems

import (
	"context"
	"strings"
	"testing"
)

// TestPreparedMatchesRun executes a Prepared query many times and checks
// every execution returns exactly the rows a one-shot Run returns — and
// does exactly the work Run does under the same Options, so an option
// Prepare dropped (Shared once was) shows up as a different build count.
func TestPreparedMatchesRun(t *testing.T) {
	sharedS, err := smallJoin().BuildSharedState("S")
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"private": {Engine: Concurrent},
		"shared":  {Engine: Concurrent, Shared: map[string]*SharedState{"S": sharedS}},
	} {
		t.Run(name, func(t *testing.T) {
			oracle, err := smallJoin().Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := keysOf(oracle.Rows)

			p, err := smallJoin().Prepare(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				res, err := p.Run()
				if err != nil {
					t.Fatalf("execution %d: %v", i, err)
				}
				got := keysOf(res.Rows)
				if len(got) != len(want) {
					t.Fatalf("execution %d: %d rows, want %d", i, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("execution %d row %d: %q, want %q", i, j, got[j], want[j])
					}
				}
				if res.Stats.SteMBuilds != oracle.Stats.SteMBuilds {
					t.Fatalf("execution %d: %d builds, want %d (stale SteM state between runs, or an option Prepare ignored?)",
						i, res.Stats.SteMBuilds, oracle.Stats.SteMBuilds)
				}
			}
		})
	}
}

// TestPreparedStreamsOnResult checks the OnResult hook fires per execution
// and is not leaked into later runs' engine state.
func TestPreparedStreamsOnResult(t *testing.T) {
	var streamed int
	p, err := smallJoin().Prepare(Options{
		Engine:   Concurrent,
		OnResult: func(Row) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if streamed != 3*i {
			t.Fatalf("after %d executions streamed %d rows, want %d", i, streamed, 3*i)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("execution %d returned %d rows, want 3", i, len(res.Rows))
		}
	}
}

// TestPreparedRecoversFromCancel cancels an execution mid-run and checks the
// next execution still returns full results (the dirty shell is rebuilt,
// never reused) under the same options: SkipBuildTable keeps R out of its
// SteM, so a rebuild that forgot it would build more rows than before.
func TestPreparedRecoversFromCancel(t *testing.T) {
	for name, opts := range map[string]Options{
		"default":   {Engine: Concurrent},
		"skipBuild": {Engine: Concurrent, SkipBuildTable: "R"},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := smallJoin().Prepare(opts)
			if err != nil {
				t.Fatal(err)
			}
			before, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.RunContext(ctx); err == nil {
				t.Fatal("canceled execution returned nil error")
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 3 {
				t.Fatalf("post-cancel execution returned %d rows, want 3", len(res.Rows))
			}
			if res.Stats.SteMBuilds != before.Stats.SteMBuilds {
				t.Fatalf("post-cancel execution built %d rows, %d before the cancel (rebuild dropped an option?)",
					res.Stats.SteMBuilds, before.Stats.SteMBuilds)
			}
		})
	}
}

// TestPrepareRejectsUnpoolableOptions pins the option subset Prepare
// supports: simulator-only hooks and per-run eviction state must be
// refused with a clear error, not silently dropped.
func TestPrepareRejectsUnpoolableOptions(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"sim engine", Options{Engine: Sim}, "requires Engine: Concurrent"},
		{"explain", Options{Engine: Concurrent, Explain: true}, "simulation engine"},
		{"window", Options{Engine: Concurrent, Window: map[string]int{"R": 1}}, "eviction"},
	}
	for _, tc := range cases {
		if _, err := smallJoin().Prepare(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}
