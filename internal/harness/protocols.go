package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/stats"
	"safetynet/internal/workload"
)

// protocols runs the five paper workloads on both coherence backends —
// the evaluated MOSI directory/torus machine and footnote 1's broadcast
// snooping system — from one shared configuration, reporting throughput
// and SafetyNet logging overhead side by side. The headline observation
// is protocol-agnosticism (§2.3): logging rates per retired instruction
// are of the same order on both substrates even though the interconnects
// (and hence absolute IPC) differ completely.

var protocolNames = []string{config.ProtocolDirectory, config.ProtocolSnoop}

// protocolsCampaign declares the experiment as a campaign: the
// workload × protocol matrix over a protected base scenario, with the
// perturbed-run replication expressed as a seed range.
func protocolsCampaign(o runner.Options) *campaign.Campaign {
	protected := true
	perturb := uint64(4)
	wlAxis := campaign.Axis{Name: "workload"}
	for _, wl := range workload.PaperWorkloads() {
		wlAxis.Points = append(wlAxis.Points, campaign.AxisPoint{Label: wl, Workload: wl})
	}
	protoAxis := campaign.Axis{Name: "protocol"}
	for _, proto := range protocolNames {
		p := proto
		protoAxis.Points = append(protoAxis.Points, campaign.AxisPoint{
			Label: proto, Overrides: &scenario.Overrides{Protocol: &p},
		})
	}
	return &campaign.Campaign{
		Name: "protocols",
		Base: scenario.Scenario{
			Workload:      workload.PaperWorkloads()[0],
			WarmupCycles:  uint64(o.Warmup),
			MeasureCycles: uint64(o.Measure),
			Overrides: &scenario.Overrides{
				SafetyNetEnabled:    &protected,
				LatencyPerturbation: &perturb,
			},
		},
		Axes:  []campaign.Axis{wlAxis, protoAxis},
		Seeds: &campaign.SeedRange{Start: o.BaseSeed, Count: o.Runs, Stride: perturbSeedStride},
	}
}

// protocolsGrid expands workload x protocol x perturbed-run points.
func protocolsGrid(base config.Params, o runner.Options) []Point {
	return campaignPoints(protocolsCampaign(o), base)
}

// protocolsReduce reports each (workload, protocol) point's IPC and its
// CLB appends per 1000 retired instructions.
func protocolsReduce(_ config.Params, o runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     "Two protocols, one harness: directory vs snooping SafetyNet",
		Subtitle:  "(same parameters aimed at both backends; IPC is per-substrate, not comparable across rows)",
		LabelCols: []string{"workload", "protocol"},
		ValueCols: []string{"aggregate IPC", "CLB appends /1k instr"},
		ValueFmt:  []string{"%.3f", "%.2f"},
		Notes: []string{
			"(paper fn. 1/§2.3: SafetyNet is protocol-agnostic — on the ordered snooping interconnect logical time is simply the total snoop order; logging overhead per instruction is of the same order on both substrates)",
		},
	}
	logRate := func(r *runner.RunResult) float64 {
		return 1000 * stats.SafeDiv(float64(r.StoresLogged+r.TransfersLogged), float64(r.Instrs))
	}
	for _, d := range designPoints(pts, res, o.Runs, ipc, logRate) {
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{d.Label("workload"), d.Label("protocol")},
			Values: []Value{d.value(0, nil), d.value(1, nil)},
		})
	}
	return rep
}

func init() {
	if err := Register(Experiment{
		Name:        "protocols",
		Title:       "Two protocols, one harness",
		Description: "side-by-side directory vs snooping IPC and logging overhead across the five paper workloads",
		Order:       8,
		Grid:        protocolsGrid,
		Reduce:      protocolsReduce,
	}); err != nil {
		panic(err)
	}
}
