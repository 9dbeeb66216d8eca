// Package explore turns exhaustive campaigns into search: a declarative
// Exploration (JSON, with the same strict canonical parse/encode
// discipline as internal/scenario and internal/campaign) names a search
// space — a campaign whose axis×variant matrix defines the arms and
// whose seed range defines each arm's replications — one or more
// objective functions extracted from run results, and a search strategy
// that decides which arms to spend runs on:
//
//   - "exhaustive" evaluates every arm on every seed at full sizing (the
//     baseline halving is measured against);
//   - "halving" (successive halving) evaluates all arms at a short
//     sizing (scaled horizon, seed subset), keeps the top fraction by
//     nondominated rank, repeats until only the finalists remain, and
//     evaluates those at full sizing — executing strictly fewer runs
//     than the exhaustive grid while the finalists' objective vectors
//     are bit-identical to the grid's (same deterministic runs).
//
// Exhaustive is halving in which every arm is a finalist, so no pruning
// round runs. Both share one search loop, and every run it schedules
// enters the shared worker pool through runner.RunAll. Once an arm's
// scheduled runs finish, a crash among them disqualifies the arm, and a
// disqualified arm contributes no samples at all, so the report is
// byte-identical at any worker count.
//
// The output is a Pareto-frontier report (text/JSON/CSV) over the
// evaluated arms, with per-axis breakdowns.
package explore

import (
	"fmt"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/scenario"
)

// Strategy kinds.
const (
	KindExhaustive = "exhaustive"
	KindHalving    = "halving"
)

// Kinds lists the search strategies in documentation order.
func Kinds() []string { return []string{KindExhaustive, KindHalving} }

// Exploration is one declarative search: the space, the objectives,
// and the strategy spending runs over it.
type Exploration struct {
	// Name and Description identify the exploration in reports.
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Space is the search space: the campaign's axis×variant matrix
	// defines the arms, its seed range each arm's replications. The
	// campaign's own name/description are unused here.
	Space campaign.Campaign `json:"space"`
	// Objectives names the objective functions, best-first: the first
	// is the primary objective, whose best value the per-axis
	// breakdowns report. Directions are fixed per objective (see
	// Objectives).
	Objectives []string `json:"objectives"`
	// Strategy selects and parameterizes the search.
	Strategy Strategy `json:"strategy"`
}

// Strategy selects the search and its parameters. The parameters apply
// only to halving; setting one on exhaustive is a validation error, so
// encoded explorations state exactly what runs.
type Strategy struct {
	// Kind is "exhaustive" or "halving".
	Kind string `json:"kind"`
	// Eta (halving) is the pruning divisor: each short round keeps
	// ceil(alive/eta) arms (at least Finalists). Default 2.
	Eta int `json:"eta,omitempty"`
	// Finalists (halving) is how many arms reach the full-sizing final
	// round. Default 2.
	Finalists int `json:"finalists,omitempty"`
	// ScaleTo (halving) is the short rounds' horizon budget in cycles
	// (see campaign.Scaled); zero runs short rounds at full horizon
	// (seed subsetting still prunes).
	ScaleTo uint64 `json:"scale_to,omitempty"`
	// SeedsPerRound (halving) is how many of each arm's seeds the short
	// rounds run. Default 1.
	SeedsPerRound int `json:"seeds_per_round,omitempty"`
}

// eta returns the effective halving divisor.
func (s *Strategy) eta() int {
	if s.Eta == 0 {
		return 2
	}
	return s.Eta
}

// finalists returns the effective final-round arm count.
func (s *Strategy) finalists() int {
	if s.Finalists == 0 {
		return 2
	}
	return s.Finalists
}

// seedsPerRound returns the effective short-round seed count.
func (s *Strategy) seedsPerRound() int {
	if s.SeedsPerRound == 0 {
		return 1
	}
	return s.SeedsPerRound
}

// Arms returns the number of search arms: the space's axis×variant
// matrix size (its expansion divided by the seed replications).
func (e *Exploration) Arms() int {
	n := e.Space.Runs()
	if e.Space.Seeds != nil && e.Space.Seeds.Count > 0 {
		n /= e.Space.Seeds.Count
	}
	return n
}

// seedsPerArm returns each arm's replication count.
func (e *Exploration) seedsPerArm() int {
	if e.Space.Seeds != nil && e.Space.Seeds.Count > 0 {
		return e.Space.Seeds.Count
	}
	return 1
}

// ArmDescs returns each arm's description in arm order: its first run's
// description with the seed dimension dropped, as the report prints it.
func (e *Exploration) ArmDescs() ([]string, error) {
	runs, err := e.Space.Expand()
	if err != nil {
		return nil, err
	}
	descs := make([]string, e.Arms())
	for a := range descs {
		_, descs[a] = armLabels(runs[a*e.seedsPerArm()])
	}
	return descs, nil
}

// Validate reports the first structural error: an invalid space, an
// unknown or duplicate objective, an unknown strategy kind, a halving
// parameter on exhaustive, or a degenerate parameter value.
func (e *Exploration) Validate() error {
	if err := e.Space.Validate(); err != nil {
		return fmt.Errorf("exploration space: %w", err)
	}
	if len(e.Objectives) == 0 {
		return fmt.Errorf("exploration: needs at least one objective (have %v)", ObjectiveNames())
	}
	seen := map[string]bool{}
	for _, name := range e.Objectives {
		if _, ok := objectiveByName(name); !ok {
			return fmt.Errorf("exploration: unknown objective %q (have %v)", name, ObjectiveNames())
		}
		if seen[name] {
			return fmt.Errorf("exploration: duplicate objective %q", name)
		}
		seen[name] = true
	}
	return e.validateStrategy()
}

func (e *Exploration) validateStrategy() error {
	s := &e.Strategy
	switch s.Kind {
	case KindExhaustive:
		// Reject halving parameters so an encoded exploration never
		// carries silently-ignored knobs.
		if s.Eta != 0 || s.Finalists != 0 || s.ScaleTo != 0 || s.SeedsPerRound != 0 {
			return fmt.Errorf("exploration: strategy %q takes no halving parameters (eta, finalists, scale_to, seeds_per_round)", s.Kind)
		}
		return nil
	case KindHalving:
		if s.Eta < 0 || s.Eta == 1 {
			return fmt.Errorf("exploration: halving eta must be at least 2, got %d", s.Eta)
		}
		if s.Finalists < 0 {
			return fmt.Errorf("exploration: halving finalists must be positive, got %d", s.Finalists)
		}
		if s.SeedsPerRound < 0 || s.SeedsPerRound > e.seedsPerArm() {
			return fmt.Errorf("exploration: halving seeds_per_round %d outside the arm's %d seeds", s.SeedsPerRound, e.seedsPerArm())
		}
		return nil
	case "":
		return fmt.Errorf("exploration: strategy needs a kind (have %v)", Kinds())
	default:
		return fmt.Errorf("exploration: unknown strategy kind %q (have %v)", s.Kind, Kinds())
	}
}

// Parse decodes and validates one exploration. Decoding is strict:
// unknown fields fail, trailing content fails, and the space is
// expanded once so an accepted exploration is runnable end to end.
func Parse(data []byte) (*Exploration, error) {
	var e Exploration
	if err := scenario.DecodeStrict(data, "exploration", &e); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if _, err := e.Space.Expand(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Encode renders the exploration in the canonical indented form used
// by the checked-in files. Parse(Encode(e)) reproduces e.
func (e *Exploration) Encode() ([]byte, error) { return report.JSON(e) }

// Load reads and parses an exploration file.
func Load(path string) (*Exploration, error) { return scenario.LoadFile(path, Parse) }
