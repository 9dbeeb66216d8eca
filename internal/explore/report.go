package explore

import (
	"fmt"
	"strconv"
	"strings"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/stats"
)

// Round is one strategy phase's deterministic run accounting.
type Round struct {
	// Phase is "short" (a halving pruning round) or "full" (the
	// full-sizing evaluation of the finalists, every arm under
	// exhaustive).
	Phase string `json:"phase"`
	// Arms is how many arms the phase touched.
	Arms int `json:"arms"`
	// SeedsEach is the replications per arm this phase scheduled.
	SeedsEach int `json:"seeds_each"`
	// ScaledTo is the horizon budget in cycles (0 = full sizing).
	ScaledTo uint64 `json:"scaled_to,omitempty"`
	// Runs is the phase's scheduled run count.
	Runs int `json:"runs"`
	// Kept is how many arms survived a pruning phase.
	Kept int `json:"kept,omitempty"`
	// CrashedArms counts arms disqualified by a crash this phase.
	CrashedArms int `json:"crashed_arms,omitempty"`
}

// ObjectiveInfo names one objective and its direction in the report.
type ObjectiveInfo struct {
	Name string `json:"name"`
	Goal string `json:"goal"` // "max" or "min"
}

// Arm is one search arm's outcome.
type Arm struct {
	// Index is the arm's position in the space's expansion order.
	Index int `json:"index"`
	// Labels is the arm's position along every space dimension (axis
	// names plus "variant"; never "seed" — seeds are replications).
	Labels map[string]string `json:"labels,omitempty"`
	// Desc is the human-readable position.
	Desc string `json:"desc"`
	// Runs is the number of replications whose samples the arm's
	// objectives average over (0 for pruned and crashed arms).
	Runs int `json:"runs"`
	// Crashed marks a disqualified arm: one of its runs crashed, so
	// none of its samples count.
	Crashed bool `json:"crashed,omitempty"`
	// Pruned marks an arm the strategy dropped before full evaluation.
	Pruned bool `json:"pruned,omitempty"`
	// Objectives holds the arm's natural-direction objective means, in
	// the exploration's objective order (nil for pruned/crashed arms).
	Objectives []float64 `json:"objectives,omitempty"`
	// Rank is the arm's nondominated rank among evaluated arms (0 is
	// the frontier; -1 for pruned and crashed arms).
	Rank int `json:"rank"`
	// Frontier marks Pareto-frontier membership.
	Frontier bool `json:"frontier,omitempty"`
}

// AxisGroup aggregates one axis label's arms.
type AxisGroup struct {
	Label string `json:"label"`
	// Arms is the label's arm count; Evaluated how many reached full
	// evaluation; FrontierArms how many sit on the frontier.
	Arms         int `json:"arms"`
	Evaluated    int `json:"evaluated"`
	FrontierArms int `json:"frontier_arms"`
	// BestPrimary is the best primary-objective value among the label's
	// evaluated arms (natural direction; 0 when none evaluated).
	BestPrimary float64 `json:"best_primary"`
}

// AxisBreakdown aggregates the arms along one space dimension.
type AxisBreakdown struct {
	Axis   string      `json:"axis"`
	Groups []AxisGroup `json:"groups"`
}

// Report is the result of one exploration: the Pareto frontier over
// the evaluated arms, every arm's outcome, per-axis breakdowns, and
// the deterministic run accounting that proves the strategy's savings.
// For a fixed exploration the encodings are byte-identical at any
// worker count.
type Report struct {
	Exploration string          `json:"exploration"`
	Description string          `json:"description,omitempty"`
	Strategy    string          `json:"strategy"`
	Objectives  []ObjectiveInfo `json:"objectives"`
	// Arms is the space's arm count; ExecutedRuns the runs the strategy
	// executed; ExhaustiveRuns what the full grid would execute.
	Arms           int `json:"arms"`
	EvaluatedArms  int `json:"evaluated_arms"`
	PrunedArms     int `json:"pruned_arms"`
	CrashedArms    int `json:"crashed_arms"`
	ExecutedRuns   int `json:"executed_runs"`
	ExhaustiveRuns int `json:"exhaustive_runs"`
	// Frontier lists the nondominated arms in expansion order; AllArms
	// every arm.
	Frontier []Arm           `json:"frontier"`
	AllArms  []Arm           `json:"all_arms"`
	Axes     []AxisBreakdown `json:"axes,omitempty"`
	Rounds   []Round         `json:"rounds"`
}

// armLabels derives the arm-level labels and description of arm a from
// its first expanded run by dropping the seed dimension.
func armLabels(r campaign.Run) (map[string]string, string) {
	labels := make(map[string]string, len(r.Labels))
	for k, v := range r.Labels {
		if k != campaign.LabelSeed {
			labels[k] = v
		}
	}
	desc := r.Desc
	if i := strings.Index(desc, " "+campaign.LabelSeed+"="); i >= 0 {
		desc = desc[:i]
	} else if strings.HasPrefix(desc, campaign.LabelSeed+"=") {
		desc = "arm " + strconv.Itoa(r.Index)
	}
	return labels, desc
}

// reduce folds the strategy's final evaluations into the report.
func (x *executor) reduce(finals map[int]armEval, rounds []Round) (*Report, error) {
	e := x.e
	runs, err := x.expand(0) // full sizing: label source only
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Exploration:    e.Name,
		Description:    e.Description,
		Strategy:       e.Strategy.Kind,
		Arms:           e.Arms(),
		ExecutedRuns:   x.scheduled,
		ExhaustiveRuns: e.Space.Runs(),
		Rounds:         rounds,
	}
	for _, obj := range x.objs {
		goal := "min"
		if obj.Maximize {
			goal = "max"
		}
		rep.Objectives = append(rep.Objectives, ObjectiveInfo{Name: obj.Name, Goal: goal})
	}

	// Assemble every arm in expansion order, then rank the evaluated
	// ones together.
	arms := make([]Arm, rep.Arms)
	var evaluated []int
	var vectors [][]float64
	for a := 0; a < rep.Arms; a++ {
		labels, desc := armLabels(runs[a*x.nSeeds])
		arm := Arm{Index: a, Labels: labels, Desc: desc, Rank: -1}
		ev, ok := finals[a]
		switch {
		case !ok:
			arm.Pruned = true
			rep.PrunedArms++
		case ev.crashed:
			arm.Crashed = true
			rep.CrashedArms++
		default:
			arm.Runs = x.nSeeds // a final evaluation runs every seed
			arm.Objectives = ev.natural
			evaluated = append(evaluated, a)
			vectors = append(vectors, dominanceVector(x.objs, ev.natural))
		}
		arms[a] = arm
	}
	rep.EvaluatedArms = len(evaluated)
	ranks := stats.NondominatedRanks(vectors)
	for i, a := range evaluated {
		arms[a].Rank = ranks[i]
		arms[a].Frontier = ranks[i] == 0
		if arms[a].Frontier {
			rep.Frontier = append(rep.Frontier, arms[a])
		}
	}
	rep.AllArms = arms

	// Per-axis breakdowns over the space's campaign dimensions.
	for _, d := range e.Space.Dimensions() {
		bd := AxisBreakdown{Axis: d.Name}
		for _, label := range d.Labels {
			g := AxisGroup{Label: label}
			for _, arm := range arms {
				if arm.Labels[d.Name] != label {
					continue
				}
				g.Arms++
				if arm.Rank >= 0 {
					v := arm.Objectives[0]
					if g.Evaluated == 0 || better(x.objs[0].Maximize, v, g.BestPrimary) {
						g.BestPrimary = v
					}
					g.Evaluated++
					if arm.Frontier {
						g.FrontierArms++
					}
				}
			}
			bd.Groups = append(bd.Groups, g)
		}
		rep.Axes = append(rep.Axes, bd)
	}
	return rep, nil
}

// better compares two natural-direction values under a direction.
func better(maximize bool, a, b float64) bool {
	if maximize {
		return a > b
	}
	return a < b
}

// Render prints the report as aligned text tables: the header and run
// accounting, the frontier, every arm, then the per-axis breakdowns.
func (r *Report) Render() string {
	var b strings.Builder
	title := r.Exploration
	if title == "" {
		title = "exploration"
	}
	fmt.Fprintf(&b, "Exploration %s: %s over %d arms\n", title, r.Strategy, r.Arms)
	if r.Description != "" {
		b.WriteString(r.Description + "\n")
	}
	var objs []string
	for _, o := range r.Objectives {
		objs = append(objs, o.Name+" ("+o.Goal+")")
	}
	fmt.Fprintf(&b, "objectives: %s\n", strings.Join(objs, ", "))
	fmt.Fprintf(&b, "executed %d runs (exhaustive grid: %d); %d arms evaluated, %d pruned, %d crashed\n",
		r.ExecutedRuns, r.ExhaustiveRuns, r.EvaluatedArms, r.PrunedArms, r.CrashedArms)
	for _, rd := range r.Rounds {
		fmt.Fprintf(&b, "  %-6s %3d arms x %d seed(s)", rd.Phase, rd.Arms, rd.SeedsEach)
		if rd.ScaledTo > 0 {
			fmt.Fprintf(&b, " @ %d cycles", rd.ScaledTo)
		}
		fmt.Fprintf(&b, " = %d runs", rd.Runs)
		if rd.Kept > 0 {
			fmt.Fprintf(&b, ", kept %d", rd.Kept)
		}
		if rd.CrashedArms > 0 {
			fmt.Fprintf(&b, ", %d crashed", rd.CrashedArms)
		}
		b.WriteString("\n")
	}

	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	header := append([]string{"arm"}, objectiveNames(r.Objectives)...)

	fmt.Fprintf(&b, "\nPareto frontier (%d arms):\n", len(r.Frontier))
	var rows [][]string
	for _, a := range r.Frontier {
		row := []string{a.Desc}
		for _, v := range a.Objectives {
			row = append(row, f(v))
		}
		rows = append(rows, row)
	}
	b.WriteString(stats.Table(header, rows))

	b.WriteString("\nall arms:\n")
	rows = nil
	for _, a := range r.AllArms {
		row := []string{a.Desc, status(a), rank(a)}
		for _, v := range a.Objectives {
			row = append(row, f(v))
		}
		for i := len(a.Objectives); i < len(r.Objectives); i++ {
			row = append(row, "-")
		}
		rows = append(rows, row)
	}
	b.WriteString(stats.Table(append([]string{"arm", "status", "rank"}, objectiveNames(r.Objectives)...), rows))

	for _, bd := range r.Axes {
		fmt.Fprintf(&b, "\nby %s:\n", bd.Axis)
		rows = nil
		for _, g := range bd.Groups {
			rows = append(rows, []string{
				g.Label, strconv.Itoa(g.Arms), strconv.Itoa(g.Evaluated),
				strconv.Itoa(g.FrontierArms), f(g.BestPrimary),
			})
		}
		b.WriteString(stats.Table(
			[]string{bd.Axis, "arms", "evaluated", "frontier", "best " + r.Objectives[0].Name}, rows))
	}
	return b.String()
}

func objectiveNames(objs []ObjectiveInfo) []string {
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	return names
}

func status(a Arm) string {
	switch {
	case a.Crashed:
		return "crashed"
	case a.Pruned:
		return "pruned"
	case a.Frontier:
		return "frontier"
	default:
		return "dominated"
	}
}

func rank(a Arm) string {
	if a.Rank < 0 {
		return "-"
	}
	return strconv.Itoa(a.Rank)
}

// Table returns the report as one flat table: a row per arm.
func (r *Report) Table() [][]string {
	header := append([]string{"arm", "desc", "status", "rank", "runs"}, objectiveNames(r.Objectives)...)
	table := [][]string{header}
	for _, a := range r.AllArms {
		rec := []string{strconv.Itoa(a.Index), a.Desc, status(a), rank(a), strconv.Itoa(a.Runs)}
		for _, v := range a.Objectives {
			rec = append(rec, report.Float(v))
		}
		for i := len(a.Objectives); i < len(r.Objectives); i++ {
			rec = append(rec, "")
		}
		table = append(table, rec)
	}
	return table
}
