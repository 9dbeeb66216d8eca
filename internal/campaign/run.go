package campaign

import (
	"context"

	"safetynet/internal/backend"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
)

// Options sizes one campaign execution.
type Options struct {
	// Context, when non-nil, cancels the execution: queued runs stop
	// dispatching and in-flight runs abandon at the next stride check
	// (see runner.RunCtx), and Execute returns the context's error. Nil
	// means run to completion (context.Background).
	Context context.Context
	// Workers is the worker-pool width; zero and negative values mean
	// one worker per available CPU — the same sanitization path the
	// experiment harness uses (runner.Workers).
	Workers int
	// ScaleTo, when nonzero, proportionally shrinks every run so its
	// total horizon fits the budget (see Campaign.Scaled); the CI smoke
	// tooling uses it.
	ScaleTo uint64
	// OnResult, when non-nil, streams completions: it fires once per
	// run, in completion order, with the running done count. Calls are
	// serialized, so the callback may write shared state without
	// locking. The final report is unaffected by completion order.
	OnResult func(done, total int, run Run, res runner.RunResult)
	// Observer, when non-nil, builds a per-run observer that the
	// backend notifies of checkpoint advances, recoveries, fault
	// firings, and crashes (the RunObserver hooks) while the run
	// executes. Callbacks fire concurrently across workers.
	Observer func(run Run) *backend.Observer
}

// RunConfigs assembles the runner descriptions for already-expanded
// runs, in expansion order. Expand validated every scenario, so Params
// cannot fail here; a failure would surface as a crashed run via
// NewBackend. The observer factory may be nil. Execute and the serve
// scheduler (internal/serve) share this assembly, so a served run
// executes exactly the run a local pool would.
func RunConfigs(runs []Run, observer func(run Run) *backend.Observer) []runner.RunConfig {
	rcs := make([]runner.RunConfig, len(runs))
	for i := range runs {
		sc := &runs[i].Scenario
		p, _ := sc.Params()
		rcs[i] = runner.RunConfig{
			Params:   p,
			Workload: sc.Workload,
			Warmup:   sim.Time(sc.WarmupCycles),
			Measure:  sim.Time(sc.MeasureCycles),
			Fault:    sc.Faults,
		}
		if observer != nil {
			rcs[i].Observer = observer(runs[i])
		}
	}
	return rcs
}

// Execute expands the campaign and runs every point on the shared
// worker pool. Results stream through Options.OnResult as they
// complete; the returned report is reduced from results in expansion
// order, so its encodings are byte-identical at any worker count. A
// canceled Options.Context returns its error and no report.
func (c *Campaign) Execute(o Options) (*Report, error) {
	cc := c
	if o.ScaleTo > 0 {
		cc = c.Scaled(o.ScaleTo)
	}
	runs, err := cc.Expand()
	if err != nil {
		return nil, err
	}
	rcs := RunConfigs(runs, o.Observer)
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	total := len(rcs)
	done := 0
	res, err := runner.RunAllStreamCtx(ctx, rcs, o.Workers, func(i int, rr runner.RunResult) {
		if o.OnResult != nil {
			done++
			o.OnResult(done, total, runs[i], rr)
		}
	})
	if err != nil {
		return nil, err
	}
	return Reduce(cc, runs, res), nil
}
