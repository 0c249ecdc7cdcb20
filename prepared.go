// prepared.go is the facade's prepare-once-execute-many surface, mirroring
// the stemsd server's plan cache: the query is validated and its execution
// handle built (internal/core) a single time; each Run resets the handle in
// place (dictionaries cleared, inboxes rewound, zero goroutines left behind
// — see internal/eddy/reset_test.go) instead of rebuilding it, so hot
// repeated queries pay near-zero setup.
package stems

import (
	"context"
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/tuple"
)

// Prepared is a query built once and executable many times. The routing
// policy persists across executions, so what it learned on earlier runs
// carries over — a warm Prepared routes better than a cold one. A Prepared
// is not safe for concurrent use: executions must be serial (the server
// pools multiple handles per plan for parallelism; here, Prepare twice).
type Prepared struct {
	iq   *query.Q
	ex   *core.Exec
	hook func(*tuple.Tuple, clock.Time) // Options.OnResult, adapted; may be nil
}

// Prepare builds the query's module graph and concurrent engine for
// repeated execution. Only the Concurrent engine supports pooled reuse
// (the simulator is cheap to build and deterministic per construction), and
// per-run eviction state cannot be carried across executions, so Options that
// select the simulator, windows, or simulator-only hooks are rejected.
func (q *Query) Prepare(opts Options) (*Prepared, error) {
	if opts.Engine != Concurrent {
		return nil, fmt.Errorf("stems: Prepare requires Engine: Concurrent")
	}
	if opts.Explain || opts.OnPartial != nil {
		return nil, fmt.Errorf("stems: Explain and OnPartial require the simulation engine")
	}
	if len(opts.Window) > 0 {
		return nil, fmt.Errorf("stems: windowed tables hold per-run eviction state and cannot be prepared; use Run")
	}
	iq, err := q.Build()
	if err != nil {
		return nil, err
	}
	spec, err := q.spec(iq, opts)
	if err != nil {
		return nil, err
	}
	ex, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	return &Prepared{iq: iq, ex: ex, hook: rowHook(iq, opts.OnResult)}, nil
}

// Run executes the prepared query and collects all results.
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext is Run under a cancellation context. After a canceled or
// failed run the handle rebuilds itself from the same options on the next
// call (a stopped run may strand batches mid-flight; only clean completions
// are reset in place), so an error never poisons the Prepared.
func (p *Prepared) RunContext(ctx context.Context) (*Result, error) {
	if err := p.ex.Reset(); err != nil {
		return nil, err
	}
	outs, err := p.ex.Run(ctx, p.hook, nil)
	if err != nil {
		return nil, err
	}
	return newResult(p.iq, p.ex.Stats(), outs), nil
}
