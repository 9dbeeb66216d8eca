package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"

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
type Experiment struct {
	// Name is the catalog key (e.g. "fig6"); Title and Description are
	// for humans.
	Name        string
	Title       string
	Description string
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

// catalog is every table and figure of the evaluation, in paper order.
var catalog = []Experiment{table2, fig5, fig6, fig7, fig8, recovery, detect, snoopdetect, protocols}

// Experiments returns the catalog in paper order.
func Experiments() []Experiment { return slices.Clone(catalog) }

// RunExperiment runs the named experiment against the base
// configuration. Unknown names list the valid ones.
func RunExperiment(name string, base config.Params, o runner.Options) (*Report, error) {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		if e.Name == name {
			return e.Run(base, o), nil
		}
		names[i] = e.Name
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}
