package harness

import (
	"fmt"
	"strconv"

	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
)

// Fig8Sizes are the swept CLB capacities, largest first: the paper's
// 1 MB and 512 KB points, the 128 KB point its text discusses, plus
// 64 KB, 48 KB and 32 KB to expose the back-pressure cliff, which sits
// lower in this reproduction because the synthetic workloads log fewer
// and less bursty entries per interval than the commercial binaries (see
// the experiment catalog in README.md).
func Fig8Sizes() []int {
	return []int{1 << 20, 512 << 10, 128 << 10, 64 << 10, 48 << 10, 32 << 10}
}

// fig8Grid declares workload x CLB size x perturbed runs as a campaign.
func fig8Grid(base config.Params, o runner.Options) []Point {
	clb := campaign.Axis{Name: "clb"}
	for _, size := range Fig8Sizes() {
		clb.Points = append(clb.Points, campaign.AxisPoint{
			Label: strconv.Itoa(size), Overrides: &scenario.Overrides{CLBBytes: &size},
		})
	}
	return campaignPoints(paperCampaign("fig8", o, workloadAxis(), clb), base)
}

// fig8Reduce reports one row per workload and one column per CLB size:
// IPC normalized to the largest CLB, so the biggest buffer reads ~1.0
// as in the paper's Figure 8.
func fig8Reduce(_ config.Params, o runner.Options, pts []Point, res []runner.RunResult) *Report {
	sizes := Fig8Sizes()
	rep := &Report{
		Subtitle:  "(normalized to the 1 MB configuration)",
		LabelCols: []string{"workload"},
		Notes: []string{
			"(paper: 1MB and 512KB statistically equivalent; 256KB degrades jbb and apache; 128KB degrades all)",
		},
	}
	for _, s := range sizes {
		rep.ValueCols = append(rep.ValueCols, fmt.Sprintf("%dKB", s>>10))
	}
	dps := designPoints(pts, res, o.Runs, ipc)
	for i := 0; i+len(sizes) <= len(dps); i += len(sizes) {
		row := Row{Labels: []string{dps[i].Label("workload")}}
		for j := range sizes {
			row.Values = append(row.Values, dps[i+j].value(0, &dps[i]))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

var fig8 = Experiment{
	Name:        "fig8",
	Title:       "Figure 8: Performance vs CLB Size",
	Description: "performance degradation from CLB back-pressure as buffer capacity shrinks",
	Grid:        fig8Grid,
	Reduce:      fig8Reduce,
}
