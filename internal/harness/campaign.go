package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// paperCampaign declares an experiment as a campaign over the paper's
// protected base, whose memory latencies are perturbed by up to four
// cycles, sized by o and replicated over o.Runs seeds perturbSeedStride
// apart: the runs perturbed gives a hand-written grid. The axes deviate
// from that base; fig8, recovery and protocols are declared this way.
func paperCampaign(name string, o runner.Options, axes ...campaign.Axis) *campaign.Campaign {
	protected := true
	perturb := uint64(4)
	return &campaign.Campaign{
		Name: name,
		Base: scenario.Scenario{
			Workload:      workload.PaperWorkloads()[0],
			WarmupCycles:  uint64(o.Warmup),
			MeasureCycles: uint64(o.Measure),
			Overrides: &scenario.Overrides{
				SafetyNetEnabled:    &protected,
				LatencyPerturbation: &perturb,
			},
		},
		Axes:  axes,
		Seeds: &campaign.SeedRange{Start: o.BaseSeed, Count: o.Runs, Stride: perturbSeedStride},
	}
}

// workloadAxis sweeps the five paper workloads, labeled "workload".
func workloadAxis() campaign.Axis {
	a := campaign.Axis{Name: "workload"}
	for _, wl := range workload.PaperWorkloads() {
		a.Points = append(a.Points, campaign.AxisPoint{Label: wl, Workload: wl})
	}
	return a
}

// campaignPoints expands a campaign definition into an experiment grid:
// one Point per expanded run, labeled with the run's matrix position,
// with the run's configuration assembled over the caller's base
// parameters (scenario.ParamsFrom) rather than the Table 2 defaults.
// The campaign layer owns expansion and labeling; the experiment keeps
// only its reduce step.
func campaignPoints(c *campaign.Campaign, base config.Params) []Point {
	runs, err := c.Expand()
	if err != nil {
		// A grid function cannot return an error; surface the defective
		// definition as a single run that reports the cause as a crash
		// instead of panicking inside the catalog.
		return []Point{{
			Labels: map[string]string{"error": err.Error()},
			Run:    runner.RunConfig{Workload: "invalid campaign: " + err.Error()},
		}}
	}
	pts := make([]Point, len(runs))
	for i := range runs {
		sc := &runs[i].Scenario
		// An override set the base cannot absorb fails validation here;
		// the unvalidated params then surface the cause as a crashed run.
		p, _ := sc.ParamsFrom(base)
		pts[i] = Point{
			Labels: runs[i].Labels,
			Run: runner.RunConfig{
				Params:   p,
				Workload: sc.Workload,
				Warmup:   sim.Time(sc.WarmupCycles),
				Measure:  sim.Time(sc.MeasureCycles),
				Fault:    sc.Faults,
			},
		}
	}
	return pts
}
