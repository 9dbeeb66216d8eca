// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark runs its experiment end to end with
// reduced windows (the full-size suite is cmd/snbench) and reports the
// headline quantity of the corresponding artifact as a custom metric, so
// `go test -bench=. -benchmem` both exercises and summarizes the
// reproduction.
package safetynet

import (
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/machine"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// benchOptions keeps every figure-bench in the seconds range.
func benchOptions() runner.Options {
	return runner.Options{Runs: 1, Warmup: 200_000, Measure: 600_000, BaseSeed: 1}
}

// benchReport runs one registered experiment on the Table 2 defaults.
func benchReport(b *testing.B, name string, o runner.Options) *Report {
	b.Helper()
	rep, err := RunExperiment(name, config.Default(), o)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable2SystemParameters renders the Table 2 configuration.
func BenchmarkTable2SystemParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := benchReport(b, "table2", benchOptions()).Render(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5PerformanceEvaluation runs the five-bar, five-workload
// performance evaluation (Experiments 1-3) and reports the mean
// normalized performance of SafetyNet fault-free (paper: ~1.0) and the
// number of unprotected bars that crashed (paper: all five).
func BenchmarkFig5PerformanceEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var snSum float64
		workloads, crashes := 0, 0
		for _, row := range benchReport(b, "fig5", benchOptions()).Rows {
			switch row.Labels[1] {
			case "SafetyNet fault-free":
				snSum += row.Values[0].Mean
				workloads++
			case "Unprotected with fault":
				if row.Values[0].Crashed {
					crashes++
				}
			}
		}
		b.ReportMetric(snSum/float64(workloads), "safetynet-norm-perf")
		b.ReportMetric(float64(crashes), "unprotected-crashes")
	}
}

// BenchmarkFig6LoggingFrequency sweeps the checkpoint interval and
// reports the falloff factor of stores-that-use-the-CLB from the 10k- to
// the 1M-cycle interval (paper: one to two orders of magnitude).
func BenchmarkFig6LoggingFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, "fig6", benchOptions()).Rows
		// Columns: all stores, all coherence requests, stores->CLB,
		// coherence requests->CLB.
		first, last := rows[0].Values, rows[len(rows)-1].Values
		if last[2].Mean > 0 {
			b.ReportMetric(first[2].Mean/last[2].Mean, "logging-falloff-x")
		}
		b.ReportMetric(first[0].Mean, "stores-per-1k-instr")
	}
}

// BenchmarkFig7CacheBandwidth sweeps the checkpoint interval and reports
// SafetyNet's added cache bandwidth at the shortest and longest intervals
// (paper: ~4% down to ~0.3%).
func BenchmarkFig7CacheBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchReport(b, "fig7", benchOptions()).Rows
		// The fourth column is logging's percent of cache-port occupancy.
		b.ReportMetric(rows[0].Values[3].Mean, "logging-bw-pct-10k")
		b.ReportMetric(rows[len(rows)-1].Values[3].Mean, "logging-bw-pct-1M")
	}
}

// BenchmarkFig8CLBSizing sweeps CLB capacity and reports the normalized
// performance at the smallest size (paper: undersized CLBs degrade all
// workloads through log back-pressure).
func BenchmarkFig8CLBSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var worst = 1.0
		// One row per workload; the last column is the smallest CLB.
		for _, row := range benchReport(b, "fig8", benchOptions()).Rows {
			if m := row.Values[len(row.Values)-1].Mean; m < worst {
				worst = m
			}
		}
		b.ReportMetric(worst, "worst-norm-perf-smallest-clb")
	}
}

// BenchmarkRecoverySpeedBump measures the recovery round trip under
// periodic transient faults (paper §4.2: well under a millisecond).
func BenchmarkRecoverySpeedBump(b *testing.B) {
	o := benchOptions()
	o.Measure = 1_500_000
	for i := 0; i < b.N; i++ {
		metrics := map[string]float64{}
		for _, row := range benchReport(b, "recovery", o).Rows {
			metrics[row.Labels[0]] = row.Values[0].Mean
		}
		b.ReportMetric(metrics["coordination latency"], "recovery-coord-cycles")
		b.ReportMetric(metrics["lost work per recovery"], "lost-instrs-per-recovery")
	}
}

// BenchmarkDetectionToleranceSweep verifies recovery across the
// detection-latency sweep (paper §3.4: up to 400k cycles tolerated).
func BenchmarkDetectionToleranceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recovered := 0
		// Labels: detection latency, recovered, crashed.
		for _, row := range benchReport(b, "detect", benchOptions()).Rows {
			if row.Labels[1] == "true" && row.Labels[2] == "false" {
				recovered++
			}
		}
		b.ReportMetric(float64(recovered), "latencies-recovered")
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the simulator's hot paths
// ---------------------------------------------------------------------

// BenchmarkSimulatorThroughput reports simulated cycles per wall-second
// of the full 16-node machine under the OLTP workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := workload.ByName("oltp")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m := machine.New(config.Default(), prof)
		m.Start()
		m.Run(1_000_000)
		if m.TotalInstrs() == 0 {
			b.Fatal("no progress")
		}
	}
	b.ReportMetric(1e6*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkEngineSchedule isolates the event queue: a self-rescheduling
// event mix of near-term work and canceled long timers, the simulator's
// characteristic load. Steady state should be allocation-free.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		c := e.ScheduleCancelable(e.Now()+100_000, func() {})
		c.Cancel()
		e.After(sim.Time(1+n%7), tick)
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 64)
	}
}

// BenchmarkNetworkSend isolates routing, link contention, and hop
// traversal: all-to-all control traffic on the 4x4 torus. Steady state
// should be allocation-free (pooled messages, cached routes, pooled
// traversal state).
func BenchmarkNetworkSend(b *testing.B) {
	eng := sim.NewEngine()
	topo := topology.New(4, 4)
	nw := network.New(eng, topo, config.Default())
	for n := 0; n < topo.Nodes(); n++ {
		nw.Attach(n, msg.Release)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := i%16, (i*7+3)%16
		m := msg.Alloc()
		*m = msg.Message{Type: msg.GETS, Src: src, Dst: dst}
		nw.Send(m)
		if i%64 == 63 {
			eng.Run(eng.Now() + 512)
		}
	}
	eng.Run(eng.Now() + 100_000)
	if s := nw.Stats(); s.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkFaultFreeCheckpointing isolates SafetyNet's common-case cost:
// the same machine with and without protection, reporting the overhead
// ratio (paper: statistically insignificant).
func BenchmarkFaultFreeCheckpointing(b *testing.B) {
	prof, err := workload.ByName("jbb")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run := func(sn bool) float64 {
			p := config.Default()
			p.SafetyNetEnabled = sn
			m := machine.New(p, prof)
			m.Start()
			m.Run(1_000_000)
			return float64(m.TotalInstrs())
		}
		up := run(false)
		sn := run(true)
		if up > 0 {
			b.ReportMetric(sn/up, "protected/unprotected-perf")
		}
	}
}

// BenchmarkRecoveryUnroll measures the machine-wide rollback cost itself:
// dirty execution, then a forced recovery.
func BenchmarkRecoveryUnroll(b *testing.B) {
	prof, err := workload.ByName("stress")
	if err != nil {
		b.Fatal(err)
	}
	p := config.Default()
	p.L2Bytes = 64 << 10
	p.L1Bytes = 8 << 10
	p.CheckpointIntervalCycles = 10_000
	p.ValidationSignoffCycles = 10_000
	p.ValidationWatchdogCycles = 80_000
	for i := 0; i < b.N; i++ {
		m := machine.New(p, prof)
		m.Start()
		m.Run(60_000)
		m.ActiveService().TriggerRecovery("bench")
		m.Run(sim.Time(200_000))
		if len(m.ActiveService().Recoveries()) != 1 {
			b.Fatal("recovery did not complete")
		}
	}
}
