package safetynet

import (
	"safetynet/internal/explore"
)

// Exploration is a declarative, JSON-round-trippable design-space
// search: a campaign-shaped space (axis×variant matrix of arms, seed
// range of replications), one or more objective functions extracted
// from run results, and a search strategy ("exhaustive" or successive
// "halving") that decides which arms earn runs:
//
//	e, err := safetynet.LoadExploration("examples/explorations/clb-vs-interval.json")
//	rep, err := safetynet.RunExploration(e, safetynet.ExploreOptions{Workers: 8})
//	fmt.Println(rep.Render())
//
// The encoding round-trips losslessly with the same strict canonical
// discipline as scenarios and campaigns, and the Pareto-frontier report
// is deterministic for a fixed exploration: byte-identical at any
// worker count, because pruned and crashed arms contribute no samples
// at all.
type Exploration = explore.Exploration

// ExploreStrategy selects and parameterizes the search; see
// ExploreKinds for the vocabulary.
type ExploreStrategy = explore.Strategy

// ExploreOptions sizes one exploration execution: worker count (the
// shared runner sanitization), optional global horizon clamping, and a
// streaming run callback.
type ExploreOptions = explore.Options

// ExploreReport is the Pareto-frontier result of one exploration;
// Render prints the text tables, Table returns the flat CSV table, and
// encoding/json marshals it losslessly.
type ExploreReport = explore.Report

// ExploreObjective describes one entry of the objective vocabulary.
type ExploreObjective = explore.Objective

// ExploreKinds lists the search strategies ("exhaustive", "halving").
func ExploreKinds() []string { return explore.Kinds() }

// ExploreObjectives lists the objective vocabulary (name, direction,
// description) an exploration may optimize.
func ExploreObjectives() []ExploreObjective { return explore.Objectives() }

// LoadExploration reads, parses, validates, and expansion-checks an
// exploration file.
func LoadExploration(path string) (*Exploration, error) { return explore.Load(path) }

// ParseExploration decodes and validates one exploration from JSON.
func ParseExploration(data []byte) (*Exploration, error) { return explore.Parse(data) }

// RunExploration executes the exploration's search on the shared
// worker pool and returns the Pareto-frontier report.
func RunExploration(e *Exploration, o ExploreOptions) (*ExploreReport, error) {
	return e.Execute(o)
}
