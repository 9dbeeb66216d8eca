package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// fig5Bars are Figure 5's five bars per workload, in plotting order.
// Every bar is normalized to the first, the unprotected fault-free
// baseline; the unprotected system crashes under its fault, and the
// protected bars are Experiments 1-3. A bar with a nil fault runs
// fault-free.
//
// The transient-fault rate is scaled to the horizon: the paper injects
// one fault per 100M cycles (ten per second); simulating 100M cycles per
// bar is impractical, so this harness injects one fault per measurement
// window — still a 25x higher rate than the paper's at default sizing.
// Each recovery costs roughly detection latency plus two checkpoint
// intervals of re-executed work (~150k cycles), so the expected overhead
// at this rate is a few percent, and under the paper's rate it would be
// ~0.15% — supporting the "statistically insignificant" conclusion.
var fig5Bars = []struct {
	name      string
	protected bool
	fault     func(o runner.Options) fault.Plan
}{
	{"Unprotected fault-free", false, nil},
	{"Unprotected with fault", false, func(o runner.Options) fault.Plan {
		return fault.Plan{fault.DropOnce{At: o.Warmup + o.Measure/8}}
	}},
	{"SafetyNet fault-free", true, nil},
	{"SafetyNet with transient faults", true, func(o runner.Options) fault.Plan {
		return fault.Plan{fault.DropEvery{Start: o.Warmup, Period: o.Measure}}
	}},
	{"SafetyNet with a hard fault", true, func(o runner.Options) fault.Plan {
		return fault.Plan{fault.KillSwitch{
			Node: victimSwitchNode, Axis: topology.EW, At: o.Warmup + o.Measure/4,
		}}
	}},
}

// fig5Grid expands Figure 5 into workload x bar x perturbed-run points.
func fig5Grid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, wl := range workload.PaperWorkloads() {
		for _, bar := range fig5Bars {
			for i := 0; i < o.Runs; i++ {
				p := perturbed(base, o, i)
				p.SafetyNetEnabled = bar.protected
				var plan fault.Plan
				if bar.fault != nil {
					plan = bar.fault(o)
				}
				pts = append(pts, Point{
					Labels: map[string]string{"workload": wl, "bar": bar.name},
					Run: runner.RunConfig{
						Params: p, Workload: wl, Warmup: o.Warmup, Measure: o.Measure, Fault: plan,
					},
				})
			}
		}
	}
	return pts
}

// fig5Reduce reports each bar's IPC normalized to its workload's
// unprotected fault-free bar.
func fig5Reduce(_ config.Params, o runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Subtitle:  "(normalized to unprotected fault-free; error bars = 1 stddev)",
		LabelCols: []string{"workload", "bar"},
		ValueCols: []string{"normalized"},
		Bar:       &BarSpec{Col: 0, Max: 1.2},
	}
	dps := designPoints(pts, res, o.Runs, ipc)
	for i := range dps {
		// Each workload's bars are consecutive; the first is its baseline.
		baseline := &dps[i-i%len(fig5Bars)]
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{dps[i].Label("workload"), dps[i].Label("bar")},
			Values: []Value{dps[i].value(0, baseline)},
		})
	}
	return rep
}

func init() {
	if err := Register(Experiment{
		Name:        "fig5",
		Title:       "Figure 5: Performance Evaluation of SafetyNet",
		Description: "normalized performance of Experiments 1-3 across the five paper workloads",
		Order:       1,
		Grid:        fig5Grid,
		Reduce:      fig5Reduce,
	}); err != nil {
		panic(err)
	}
}
