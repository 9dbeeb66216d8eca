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
	"safetynet/internal/harness"
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

// BenchmarkTable2SystemParameters renders the Table 2 configuration.
func BenchmarkTable2SystemParameters(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		if out := harness.Table2(cfg); len(out) == 0 {
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
		r := harness.Fig5(config.Default(), benchOptions())
		var snSum float64
		crashes := 0
		for _, wl := range r.Workloads {
			m, _, _ := r.Normalized(wl, harness.SafetyNetFaultFree)
			snSum += m
			if _, _, crashed := r.Normalized(wl, harness.UnprotectedWithFault); crashed {
				crashes++
			}
		}
		b.ReportMetric(snSum/float64(len(r.Workloads)), "safetynet-norm-perf")
		b.ReportMetric(float64(crashes), "unprotected-crashes")
	}
}

// BenchmarkFig6LoggingFrequency sweeps the checkpoint interval and
// reports the falloff factor of stores-that-use-the-CLB from the 10k- to
// the 1M-cycle interval (paper: one to two orders of magnitude).
func BenchmarkFig6LoggingFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig6(config.Default(), benchOptions())
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		if last.StoresCLBPer1000 > 0 {
			b.ReportMetric(first.StoresCLBPer1000/last.StoresCLBPer1000, "logging-falloff-x")
		}
		b.ReportMetric(first.StoresPer1000, "stores-per-1k-instr")
	}
}

// BenchmarkFig7CacheBandwidth sweeps the checkpoint interval and reports
// SafetyNet's added cache bandwidth at the shortest and longest intervals
// (paper: ~4% down to ~0.3%).
func BenchmarkFig7CacheBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig7(config.Default(), benchOptions())
		b.ReportMetric(100*r.Points[0].LoggingFrac, "logging-bw-pct-10k")
		b.ReportMetric(100*r.Points[len(r.Points)-1].LoggingFrac, "logging-bw-pct-1M")
	}
}

// BenchmarkFig8CLBSizing sweeps CLB capacity and reports the normalized
// performance at the smallest size (paper: undersized CLBs degrade all
// workloads through log back-pressure).
func BenchmarkFig8CLBSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig8(config.Default(), benchOptions())
		small := r.Sizes[len(r.Sizes)-1]
		var worst = 1.0
		for _, wl := range r.Workloads {
			if m, _ := r.Normalized(wl, small); m < worst {
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
		r := harness.Recovery(config.Default(), o)
		b.ReportMetric(r.CoordCycles.Mean(), "recovery-coord-cycles")
		b.ReportMetric(r.LostInstrsPerRecovery, "lost-instrs-per-recovery")
	}
}

// BenchmarkDetectionToleranceSweep verifies recovery across the
// detection-latency sweep (paper §3.4: up to 400k cycles tolerated).
func BenchmarkDetectionToleranceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Detect(config.Default(), benchOptions())
		recovered := 0
		for _, pt := range r.Points {
			if pt.Recovered && !pt.Crashed {
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
