// Package harness regenerates the paper's evaluation (§4) through a
// fixed catalog of declarative experiments: each table and figure is a
// grid of design points (runner.RunConfigs) and one reduce step that
// builds its structured Report, which renders as text and marshals to
// JSON and CSV. A grid the campaign language can express is declared as
// a campaign (paperCampaign: fig8, recovery, protocols); the others
// need a per-point measurement window or fault plan and are written as
// loops. New sweeps are campaigns, run by cmd/sncampaign and
// cmd/snserved, not catalog entries. Every reduce follows one crash
// rule: a value computed from a crashed run is a crash marker
// (CrashedValue), never the run's zeroed counters. Points run
// independently — every run owns its own deterministic engine — so the
// runner fans them across a worker pool without changing any result.
// cmd/snbench and the repository's benchmarks are thin wrappers around
// RunExperiment.
//
// The single-run executor, the worker pool, and the sweep sizing
// (runner.Options) live one layer down, in internal/runner, which this
// package shares with the campaign engine (internal/campaign) and the
// exploration engine (internal/explore); experiments program against
// the runner types directly, so there is exactly one run-description
// and one sizing vocabulary across every orchestrator.
package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/stats"
)

// perturbSeedStride spaces the perturbed-run seeds; paperCampaign's
// seed range reuses it, so a grid declared as a campaign runs the seeds
// perturbed gives.
const perturbSeedStride = 7919

// perturbed returns the i-th perturbed copy of p: a distinct seed and a
// small pseudo-random memory-latency jitter (Alameldeen methodology).
func perturbed(p config.Params, o runner.Options, i int) config.Params {
	p.Seed = o.BaseSeed + uint64(i)*perturbSeedStride
	p.LatencyPerturbation = 4
	return p
}

// victimSwitchNode names the half-switch killed in Experiment 3; node
// 5's east-west half sits on busy central routes of the 4x4 torus.
const victimSwitchNode = 5

// measured applies the crash rule to one report cell: a value computed
// from a crashed run is a crash marker.
func measured(v Value, from ...*runner.RunResult) Value {
	for _, r := range from {
		if r.Crashed {
			return CrashedValue()
		}
	}
	return v
}

// scalars returns one run's measured quantities as single-observation
// cells under the crash rule.
func scalars(r *runner.RunResult, vs ...float64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = measured(Scalar(v), r)
	}
	return out
}

// designPoint aggregates the perturbed runs of one design point.
type designPoint struct {
	// Point is the first run's point; its labels name the design point.
	Point
	samples []stats.Sample // one per measured quantity, surviving runs only
	crashed bool           // any of the point's runs crashed
}

// designPoints folds a replicated grid — runs consecutive runs per
// design point, the order every replicated grid here expands in — into
// one aggregate per point, sampling each measured quantity.
func designPoints(pts []Point, res []runner.RunResult, runs int, measures ...func(*runner.RunResult) float64) []designPoint {
	var out []designPoint
	for i := 0; i < len(pts); i += runs {
		d := designPoint{Point: pts[i], samples: make([]stats.Sample, len(measures))}
		for j := i; j < i+runs && j < len(res); j++ {
			if res[j].Crashed {
				d.crashed = true
				continue
			}
			for k, m := range measures {
				d.samples[k].Add(m(&res[j]))
			}
		}
		out = append(out, d)
	}
	return out
}

// value reports quantity k's mean and error bar, divided by norm's mean
// of the same quantity when norm is not nil. Under the crash rule it is
// a crash marker when d or norm crashed.
func (d *designPoint) value(k int, norm *designPoint) Value {
	s := &d.samples[k]
	if d.crashed || norm != nil && norm.crashed {
		return CrashedValue()
	}
	if norm == nil {
		return Sampled(s)
	}
	base := norm.samples[k].Mean()
	return Value{Mean: stats.SafeDiv(s.Mean(), base), Stddev: stats.SafeDiv(s.Stddev(), base), N: s.N()}
}

// ipc measures a run's aggregate IPC, the quantity fig5, fig8 and
// protocols sample.
func ipc(r *runner.RunResult) float64 { return r.IPC }
