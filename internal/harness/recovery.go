package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/stats"
)

const recoveryWorkload = "oltp"

// recoveryCampaign declares the experiment as a campaign: one protected
// OLTP base scenario with two fault-plan variants — the fault-free
// control arm and periodic transient drops. The campaign layer owns
// expansion and labeling; the experiment keeps only its reduce step.
func recoveryCampaign(o runner.Options) *campaign.Campaign {
	protected := true
	perturb := uint64(4)
	// Clamp the derived period: integer division of a tiny measurement
	// window would otherwise build a zero-period plan that fails at arm
	// time.
	period := o.Measure / 5
	if period < 1 {
		period = 1
	}
	return &campaign.Campaign{
		Name: "recovery",
		Base: scenario.Scenario{
			Workload:      recoveryWorkload,
			WarmupCycles:  uint64(o.Warmup),
			MeasureCycles: uint64(o.Measure),
			Overrides: &scenario.Overrides{
				SafetyNetEnabled:    &protected,
				LatencyPerturbation: &perturb,
			},
		},
		Variants: []campaign.Variant{
			{Name: "fault-free"},
			{Name: "faulty", Faults: fault.Plan{fault.DropEvery{Start: o.Warmup, Period: period}}},
		},
		Seeds: &campaign.SeedRange{Start: o.BaseSeed, Count: 1, Stride: perturbSeedStride},
	}
}

// recoveryGrid expands the campaign into the two design points.
func recoveryGrid(base config.Params, o runner.Options) []Point {
	return campaignPoints(recoveryCampaign(o), base)
}

// recoveryReduce quantifies the §4.2 claim that recovery is a
// sub-millisecond "speed bump": the coordination latency of recovery
// itself (detection to restart broadcast) plus the dominant cost,
// re-executing lost work.
func recoveryReduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	var free, faulty runner.RunResult
	for i, pt := range pts {
		if pt.Label(campaign.LabelVariant) == "fault-free" {
			free = res[i]
		} else {
			faulty = res[i]
		}
	}
	var coord stats.Sample
	for _, d := range faulty.RecoveryCycles {
		coord.Add(float64(d))
	}
	lost := 0.0
	if faulty.Recoveries > 0 {
		lost = float64(faulty.InstrsRolledBack) / float64(faulty.Recoveries)
	}
	row := func(metric, unit string, v Value) Row {
		return Row{Labels: []string{metric, unit}, Values: []Value{v}}
	}
	return &Report{
		Title:     "Recovery latency (§4.2: a sub-millisecond speed bump, not a crash)",
		Subtitle:  "(workload: " + recoveryWorkload + ")",
		LabelCols: []string{"metric", "unit"},
		ValueCols: []string{"value"},
		ValueFmt:  []string{"%.3f"},
		Rows: []Row{
			row("recoveries", "count", measured(Scalar(float64(faulty.Recoveries)), &faulty)),
			row("coordination latency", "cycles", measured(Sampled(&coord), &faulty)),
			row("lost work per recovery", "instructions", measured(Scalar(lost), &faulty)),
			row("throughput fault-free", "aggregate IPC", measured(Scalar(free.IPC), &free)),
			row("throughput with faults", "aggregate IPC", measured(Scalar(faulty.IPC), &faulty)),
			row("throughput retained", "percent of fault-free",
				measured(Scalar(100*stats.SafeDiv(faulty.IPC, free.IPC)), &free, &faulty)),
		},
		Notes: []string{
			"(paper: recovery latency orders of magnitude below crash/reboot; <1 ms)",
		},
	}
}

func init() {
	if err := Register(Experiment{
		Name:        "recovery",
		Title:       "Recovery latency",
		Description: "recovery coordination latency and lost work under periodic transient faults (§4.2)",
		Order:       5,
		Grid:        recoveryGrid,
		Reduce:      recoveryReduce,
	}); err != nil {
		panic(err)
	}
}
