package runner

import "safetynet/internal/sim"

// Options sizes one sweep: how many perturbed runs each design point
// simulates, the per-run warmup/measurement windows, the seed of the
// perturbation sequence, and the worker-pool width. It is the single
// sizing surface every run orchestrator shares — the experiment
// catalog (internal/harness), the campaign engine (internal/campaign
// carries the same Workers semantics), and the exploration engine
// (internal/explore) all funnel worker counts through Workers, so
// "0 means one per CPU" cannot drift between layers.
type Options struct {
	// Runs is the number of perturbed runs per design point (the paper
	// simulates each point multiple times with pseudo-random latency
	// perturbations).
	Runs int
	// Warmup and Measure are the per-run windows in cycles.
	Warmup, Measure sim.Time
	// BaseSeed seeds the perturbation sequence.
	BaseSeed uint64
	// Workers is the number of simulations run concurrently (each on
	// its own engine); zero and negative values mean one worker per
	// available CPU (runner.Workers). Results are identical at any
	// worker count — only wall-clock changes.
	Workers int
}

// DefaultOptions matches a laptop-scale reproduction: three perturbed
// runs, one-million-cycle warmup and four-million-cycle measurement.
func DefaultOptions() Options {
	return Options{Runs: 3, Warmup: 1_000_000, Measure: 4_000_000, BaseSeed: 1}
}

// QuickOptions trades precision for speed (single run, short windows).
func QuickOptions() Options {
	return Options{Runs: 1, Warmup: 500_000, Measure: 1_500_000, BaseSeed: 1}
}

// Sanitized clamps degenerate sizing so sweeps never build impossible
// runs (e.g. a zero-length measurement window turning a derived fault
// period into zero, which would fail at arm time). The worker count
// goes through the shared Workers path.
func (o Options) Sanitized() Options {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Measure < 1 {
		o.Measure = 1
	}
	o.Workers = Workers(o.Workers)
	return o
}
