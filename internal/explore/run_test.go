package explore

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/fault"
	"safetynet/internal/scenario"
)

// execJSON executes the exploration and returns the report's JSON
// encoding, the determinism currency of these tests.
func execJSON(t *testing.T, e *Exploration, o Options) (*Report, []byte) {
	t.Helper()
	rep, err := e.Execute(o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.Encode(rep, "json")
	if err != nil {
		t.Fatal(err)
	}
	return rep, data
}

// TestExhaustiveReportByteIdenticalAcrossWorkers: the whole report —
// frontier, per-arm vectors, run accounting — is byte-identical at any
// worker count.
func TestExhaustiveReportByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	e := small()
	_, one := execJSON(t, e, Options{Workers: 1})
	rep, eight := execJSON(t, e, Options{Workers: 8})
	if !bytes.Equal(one, eight) {
		t.Fatalf("report differs between 1 and 8 workers:\n%s\nvs\n%s", one, eight)
	}
	if rep.ExecutedRuns != 4 || rep.ExhaustiveRuns != 4 {
		t.Fatalf("run accounting: executed %d exhaustive %d, want 4/4", rep.ExecutedRuns, rep.ExhaustiveRuns)
	}
	if rep.EvaluatedArms != 2 || rep.PrunedArms != 0 || rep.CrashedArms != 0 {
		t.Fatalf("arm accounting: %+v", rep)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("no frontier arm")
	}
	for _, a := range rep.AllArms {
		if a.Runs != 2 || len(a.Objectives) != 2 {
			t.Fatalf("arm %d: runs %d objectives %v", a.Index, a.Runs, a.Objectives)
		}
	}
}

// TestHalvingFewerRunsBitIdenticalFinalists: halving schedules strictly
// fewer runs than the exhaustive grid, and its finalists' objective
// vectors are bit-identical to the grid's (same deterministic runs).
func TestHalvingFewerRunsBitIdenticalFinalists(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	mk := func(kind string) *Exploration {
		e := small()
		// A second axis yields 4 arms so pruning has room to act.
		e.Space.Axes = append(e.Space.Axes, campaign.Axis{
			Name: "clb",
			Points: []campaign.AxisPoint{
				{Label: "8K", Overrides: &scenario.Overrides{CLBBytes: ptr(8192)}},
				{Label: "64K", Overrides: &scenario.Overrides{CLBBytes: ptr(65536)}},
			},
		})
		switch kind {
		case KindHalving:
			e.Strategy = Strategy{Kind: KindHalving, Eta: 4, Finalists: 1}
		default:
			e.Strategy = Strategy{Kind: KindExhaustive}
		}
		return e
	}
	ex, _ := execJSON(t, mk(KindExhaustive), Options{Workers: 4})
	ha, _ := execJSON(t, mk(KindHalving), Options{Workers: 4})

	if ha.ExecutedRuns >= ex.ExecutedRuns {
		t.Fatalf("halving executed %d runs, exhaustive %d: no saving", ha.ExecutedRuns, ex.ExecutedRuns)
	}
	if ha.PrunedArms != 3 || ha.EvaluatedArms != 1 {
		t.Fatalf("halving arm accounting: %+v", ha)
	}
	for _, a := range ha.AllArms {
		if a.Pruned {
			continue
		}
		grid := ex.AllArms[a.Index]
		if !reflect.DeepEqual(a.Objectives, grid.Objectives) {
			t.Fatalf("finalist %d vectors differ from the grid: %v vs %v", a.Index, a.Objectives, grid.Objectives)
		}
		if a.Runs != grid.Runs {
			t.Fatalf("finalist %d runs %d, grid %d", a.Index, a.Runs, grid.Runs)
		}
	}
}

// TestCrashedArmDisqualified: a crashing arm is disqualified — no
// samples, no rank — without disturbing the healthy arms, and the
// report stays byte-identical across worker counts.
func TestCrashedArmDisqualified(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	e := small()
	e.Space.Base.MeasureCycles = 1_500_000
	e.Space.Base.Faults = fault.Plan{fault.DropOnce{At: 100_000}}
	e.Space.Axes = []campaign.Axis{{Name: "protected", Points: []campaign.AxisPoint{
		{Label: "on", Overrides: &scenario.Overrides{SafetyNetEnabled: ptr(true)}},
		{Label: "off", Overrides: &scenario.Overrides{SafetyNetEnabled: ptr(false)}},
	}}}

	_, one := execJSON(t, e, Options{Workers: 1})
	rep, eight := execJSON(t, e, Options{Workers: 8})
	if !bytes.Equal(one, eight) {
		t.Fatalf("crash cancellation leaked scheduling into the report:\n%s\nvs\n%s", one, eight)
	}
	if rep.CrashedArms != 1 || rep.EvaluatedArms != 1 {
		t.Fatalf("arm accounting: %+v", rep)
	}
	var on, off *Arm
	for i := range rep.AllArms {
		switch rep.AllArms[i].Labels["protected"] {
		case "on":
			on = &rep.AllArms[i]
		case "off":
			off = &rep.AllArms[i]
		}
	}
	if !off.Crashed || off.Runs != 0 || off.Objectives != nil || off.Rank != -1 {
		t.Fatalf("unprotected arm not disqualified: %+v", off)
	}
	if on.Crashed || !on.Frontier {
		t.Fatalf("protected arm: %+v", on)
	}
	// Disqualification is a data rule, not a scheduling accident: the
	// scheduled-run count still covers the crashed arm's replications.
	if rep.ExecutedRuns != rep.ExhaustiveRuns {
		t.Fatalf("executed %d, want the full grid %d", rep.ExecutedRuns, rep.ExhaustiveRuns)
	}
}

// TestBanditSeedDeterminism: the bandit's exploration draws come from
// the exploration seed alone — same seed, same report; the pull budget
// caps scheduled runs.
func TestBanditSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	mk := func(seed uint64) *Exploration {
		e := small()
		e.Seed = seed
		e.Strategy = Strategy{Kind: KindBandit, Pulls: 3, Epsilon: 0.5}
		return e
	}
	repA, a := execJSON(t, mk(7), Options{Workers: 4})
	_, b := execJSON(t, mk(7), Options{Workers: 1})
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different reports:\n%s\nvs\n%s", a, b)
	}
	if repA.ExecutedRuns != 3 {
		t.Fatalf("pull budget not respected: executed %d, want 3", repA.ExecutedRuns)
	}
	total := 0
	for _, arm := range repA.AllArms {
		total += arm.Runs
	}
	if total != 3 {
		t.Fatalf("sample accounting: %d replications across arms, want 3", total)
	}
}

// TestGlobalScaleToClampsEveryRound: Options.ScaleTo tightens every
// round's horizon, including full-sizing ones.
func TestGlobalScaleToClampsEveryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	e := small()
	rep, _ := execJSON(t, e, Options{Workers: 2, ScaleTo: 30_000})
	for _, rd := range rep.Rounds {
		if rd.ScaledTo != 30_000 {
			t.Fatalf("round %+v not clamped to 30000", rd)
		}
	}
}

// TestExecuteCanceledContext: a dead context aborts with its error.
func TestExecuteCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := small().Execute(Options{Context: ctx}); err == nil {
		t.Fatal("Execute on a canceled context succeeded")
	}
}

// TestExecuteInvalidExploration: Execute re-validates.
func TestExecuteInvalidExploration(t *testing.T) {
	e := small()
	e.Objectives = nil
	if _, err := e.Execute(Options{}); err == nil {
		t.Fatal("Execute of an invalid exploration succeeded")
	}
}
