package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// fig7Reduce reports, per interval of the fig6 sweep, the cache-port
// occupancy of hits, fills, coherence responses and logging as
// percentages of the total (paper Figure 7).
func fig7Reduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     "Figure 7: Cache Bandwidth vs Checkpoint Interval (" + fig6Workload + ")",
		Subtitle:  "(percent of cache-port occupancy by class)",
		LabelCols: []string{"interval"},
		ValueCols: []string{"hits", "fills", "coherence", "logging"},
		ValueFmt:  []string{"%.1f%%", "%.1f%%", "%.1f%%", "%.2f%%"},
		Notes: []string{
			"(paper: logging ranges from ~4% at 5k-cycle intervals down to ~0.3% at 1M)",
		},
	}
	for i := range res {
		r := &res[i]
		bw := r.Bandwidth
		total := float64(bw.Total())
		if total == 0 {
			total = 1
		}
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{pts[i].Label("interval")},
			Values: scalars(r,
				100*(float64(bw.HitCycles)/total), 100*(float64(bw.FillCycles)/total),
				100*(float64(bw.CoherenceCycles)/total), 100*(float64(bw.LoggingCycles)/total)),
		})
	}
	return rep
}

var fig7 = Experiment{
	Name:        "fig7",
	Title:       "Figure 7: Cache Bandwidth vs Checkpoint Interval",
	Description: "cache-port occupancy split across hits, fills, coherence, and logging",
	// The fig6 interval sweep: same points, different measured
	// quantity.
	Grid:   fig6Grid,
	Reduce: fig7Reduce,
}
