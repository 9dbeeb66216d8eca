package harness

import (
	"fmt"
	"strconv"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
)

const detectWorkload = "jbb"

// detectLatencies is the swept detection (request timeout) latency.
func detectLatencies() []uint64 { return []uint64{50_000, 100_000, 200_000, 400_000} }

// detectGrid expands the sweep: one single-fault run per latency.
func detectGrid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, d := range detectLatencies() {
		p := perturbed(base, o, 0)
		p.SafetyNetEnabled = true
		p.RequestTimeoutCycles = d
		p.ValidationWatchdogCycles = 3 * d
		if p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles {
			p.ValidationWatchdogCycles = 2 * p.CheckpointIntervalCycles
		}
		measure := o.Measure
		if min := sim.Time(8 * d); measure < min {
			measure = min
		}
		pts = append(pts, Point{
			Labels: map[string]string{"detect": strconv.FormatUint(d, 10)},
			Run: runner.RunConfig{
				Params: p, Workload: detectWorkload, Warmup: o.Warmup, Measure: measure,
				Fault: fault.Plan{fault.DropOnce{At: o.Warmup + measure/8}},
			},
		})
	}
	return pts
}

// detectReduce demonstrates §3.4/§4: with four outstanding 100k-cycle
// checkpoints, SafetyNet tolerates fault-detection latencies up to 400k
// cycles; the request timeout models the detection mechanism's latency.
// Longer detection latencies still recover (validation simply stalls and
// execution backpressures), at growing throughput cost. The title
// carries the configured tolerance.
func detectReduce(base config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     fmt.Sprintf("Detection-latency tolerance (configured tolerance: %d cycles)", base.DetectionToleranceCycles()),
		LabelCols: []string{"detection latency", "recovered", "crashed"},
		ValueCols: []string{"aggregate IPC"},
		Notes: []string{
			"(paper: 4 outstanding 100k-cycle checkpoints tolerate 400k cycles = 0.4 ms of detection latency)",
		},
	}
	for i, pt := range pts {
		d, _ := strconv.ParseUint(pt.Label("detect"), 10, 64)
		r := &res[i]
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{
				fmt.Sprintf("%dk cycles", d/1000),
				strconv.FormatBool(r.Recoveries > 0),
				strconv.FormatBool(r.Crashed),
			},
			Values: scalars(r, r.IPC),
		})
	}
	return rep
}

func init() {
	if err := Register(Experiment{
		Name:        "detect",
		Title:       "Detection-latency tolerance",
		Description: "recovery behavior and throughput as fault-detection latency grows (§3.4)",
		Order:       6,
		Grid:        detectGrid,
		Reduce:      detectReduce,
	}); err != nil {
		panic(err)
	}
}
