package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// Point is one simulation of an experiment's design-point grid. Labels
// name the point's position along the experiment's dimensions (workload,
// bar, interval, ...) for the reduce step and for structured output.
type Point struct {
	Labels map[string]string
	Run    runner.RunConfig
}

// Label returns one label value ("" when absent).
func (p Point) Label(key string) string { return p.Labels[key] }

// Experiment declares one table or figure of the evaluation: a grid of
// concrete runs expanded from the base configuration and options, and a
// reduce step building the structured Report from the grid's results.
// Register adds one to the catalog.
type Experiment struct {
	// Name is the registry key (e.g. "fig6"); Title and Description are
	// for humans.
	Name        string
	Title       string
	Description string
	// Order sorts the catalog listing (paper order, not name order);
	// ties list by name.
	Order int
	// Grid expands the experiment into concrete runs. Nil means the
	// experiment needs no simulation (table2 prints parameters).
	Grid func(base config.Params, o runner.Options) []Point
	// Reduce builds the report from the grid's results — res[i]
	// belongs to pts[i], in grid order regardless of execution order.
	Reduce func(base config.Params, o runner.Options, pts []Point, res []runner.RunResult) *Report
}

// Run expands the grid, executes every point (fanning across
// o.Workers workers), and reduces the results. Degenerate option
// sizing is clamped first (see Options.Sanitized).
func (e Experiment) Run(base config.Params, o runner.Options) *Report {
	o = o.Sanitized()
	var pts []Point
	if e.Grid != nil {
		pts = e.Grid(base, o)
	}
	res := RunPoints(pts, o.Workers)
	rep := e.Reduce(base, o, pts, res)
	rep.Experiment = e.Name
	if rep.Title == "" {
		rep.Title = e.Title
	}
	return rep
}

// RunPoints executes every point and returns results in point order.
// Each run owns its own deterministic engine, machine, and RNG, so runs
// are independent and the result for a given point is identical whether
// it executed serially or on a worker pool (runner.RunAll).
func RunPoints(pts []Point, parallelism int) []runner.RunResult {
	rcs := make([]runner.RunConfig, len(pts))
	for i := range pts {
		rcs[i] = pts[i].Run
	}
	// RunAll fails only when its context is canceled; this one never is.
	res, _ := runner.RunAll(context.Background(), rcs, parallelism, nil)
	return res
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds an experiment to the package registry, reporting an
// incomplete descriptor or a duplicate name. The built-in tables and
// figures register from init and panic on the error (two files claimed
// one figure); other packages register the same way.
func Register(e Experiment) error {
	regMu.Lock()
	defer regMu.Unlock()
	if e.Name == "" || e.Reduce == nil {
		return fmt.Errorf("harness: experiment needs a name and a reduce step")
	}
	if _, dup := registry[e.Name]; dup {
		return fmt.Errorf("harness: duplicate experiment %q", e.Name)
	}
	registry[e.Name] = e
	return nil
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Experiments returns every registered experiment in catalog order.
func Experiments() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names) // ties in Order keep name order
	out := make([]Experiment, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// Names returns the registered experiment names in catalog order.
func Names() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// RunExperiment runs the named experiment against the base
// configuration. Unknown names list the valid ones.
func RunExperiment(name string, base config.Params, o runner.Options) (*Report, error) {
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return e.Run(base, o), nil
}
