package harness

import (
	"strings"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/workload"
)

// tinyOptions keeps harness tests fast while still covering several
// checkpoint intervals.
func tinyOptions() runner.Options {
	return runner.Options{Runs: 1, Warmup: 300_000, Measure: 700_000, BaseSeed: 1}
}

func TestRunProducesMeasurements(t *testing.T) {
	p := config.Default()
	res := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 500_000})
	if res.Crashed {
		t.Fatalf("crashed: %s", res.CrashCause)
	}
	if res.Instrs == 0 || res.IPC <= 0 {
		t.Fatalf("no progress measured: %+v", res)
	}
	if res.StoresTotal == 0 || res.StoresLogged == 0 {
		t.Fatal("store counters empty")
	}
	if res.Bandwidth.Total() == 0 {
		t.Fatal("bandwidth counters empty")
	}
	if res.CLBPeakBytes == 0 {
		t.Fatal("CLB peak not tracked")
	}
}

func TestRunMeasurementExcludesWarmup(t *testing.T) {
	p := config.Default()
	short := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 300_000})
	long := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 600_000})
	if long.Instrs <= short.Instrs {
		t.Fatal("longer window must retire more instructions")
	}
	// Warmup cold misses must not leak into the measured miss-heavy
	// counters: the measured IPC of the longer run should not collapse.
	if long.IPC < short.IPC*0.5 {
		t.Fatalf("IPC collapsed between windows: %.3f vs %.3f", long.IPC, short.IPC)
	}
}

func TestRunCrashPropagates(t *testing.T) {
	p := config.Unprotected()
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "barnes", Warmup: 100_000, Measure: 2_000_000,
		Fault: fault.Plan{fault.DropOnce{At: 300_000}},
	})
	if !res.Crashed || res.CrashCause == "" {
		t.Fatalf("expected crash, got %+v", res)
	}
}

func TestRunFaultPlans(t *testing.T) {
	p := config.Default()
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "barnes", Warmup: 200_000, Measure: 1_200_000,
		Fault: fault.Plan{fault.DropEvery{Start: 300_000, Period: 400_000}},
	})
	if res.Crashed {
		t.Fatal("protected run crashed")
	}
	if res.Recoveries == 0 {
		t.Fatal("periodic faults caused no recoveries")
	}
	if len(res.RecoveryCycles) != res.Recoveries {
		t.Fatal("recovery latency list inconsistent")
	}
}

// runReport runs one registered experiment on the Table 2 defaults.
func runReport(t *testing.T, name string, o runner.Options) *Report {
	t.Helper()
	rep, err := RunExperiment(name, config.Default(), o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// reportRow returns the row whose first label is metric.
func reportRow(t *testing.T, rep *Report, metric string) Row {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Labels[0] == metric {
			return row
		}
	}
	t.Fatalf("%s: no %q row", rep.Experiment, metric)
	return Row{}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runReport(t, "fig6", tinyOptions())
	if len(rep.Rows) != len(Fig6Intervals()) {
		t.Fatalf("points = %d", len(rep.Rows))
	}
	// Columns: all stores, all coherence requests, stores->CLB,
	// coherence requests->CLB.
	first, last := rep.Rows[0].Values, rep.Rows[len(rep.Rows)-1].Values
	// "All stores" is interval-independent; the logged subset falls by
	// an order of magnitude or more (paper Figure 6).
	if ratio := first[0].Mean / last[0].Mean; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("all-stores rate should be flat across intervals, ratio %.2f", ratio)
	}
	if first[2].Mean < 4*last[2].Mean {
		t.Errorf("stores->CLB must fall off strongly: %.2f -> %.2f",
			first[2].Mean, last[2].Mean)
	}
	for _, row := range rep.Rows {
		if row.Values[2].Mean > row.Values[0].Mean {
			t.Errorf("interval %s: logged stores exceed all stores", row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestFig7LoggingShrinksWithInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runReport(t, "fig7", tinyOptions())
	// Columns, in percent of cache-port occupancy: hits, fills,
	// coherence, logging.
	first, last := rep.Rows[0].Values[3], rep.Rows[len(rep.Rows)-1].Values[3]
	if first.Mean <= last.Mean {
		t.Errorf("logging bandwidth must shrink with interval: %.2f%% -> %.2f%%",
			first.Mean, last.Mean)
	}
	if first.Mean > 10 {
		t.Errorf("logging share %.1f%% implausibly high (paper: a few percent at short intervals)", first.Mean)
	}
	for _, row := range rep.Rows {
		sum := row.Values[0].Mean + row.Values[1].Mean + row.Values[2].Mean + row.Values[3].Mean
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("percentages sum to %.1f at interval %s", sum, row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestRecoveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOptions()
	o.Measure = 1_500_000
	rep := runReport(t, "recovery", o)
	if reportRow(t, rep, "recoveries").Values[0].Mean == 0 {
		t.Fatal("no recoveries observed")
	}
	// The paper's claim: recovery latency well under a millisecond
	// (1e6 cycles at 1 GHz).
	if coord := reportRow(t, rep, "coordination latency").Values[0]; coord.Mean >= 1e6 {
		t.Fatalf("recovery coordination %.0f cycles: not sub-millisecond", coord.Mean)
	}
	if reportRow(t, rep, "throughput with faults").Values[0].Mean <= 0 {
		t.Fatal("faulty run made no progress")
	}
	if !strings.Contains(rep.Render(), "Recovery latency") {
		t.Error("render missing title")
	}
}

func TestDetectExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runReport(t, "detect", tinyOptions())
	if !strings.Contains(rep.Title, "configured tolerance: 400000 cycles") {
		t.Fatalf("title %q does not report the 400000-cycle tolerance", rep.Title)
	}
	// Labels: detection latency, recovered, crashed.
	for _, row := range rep.Rows {
		if row.Labels[2] != "false" {
			t.Errorf("detection latency %s crashed the protected system", row.Labels[0])
		}
		if row.Labels[1] != "true" {
			t.Errorf("detection latency %s: fault never recovered", row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Detection-latency") {
		t.Error("render missing title")
	}
}

func TestVictimSwitchStable(t *testing.T) {
	if victimSwitchNode != 5 {
		t.Fatal("victim switch changed; update the experiment catalog in README.md")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := runner.Options{Runs: 1, Warmup: 200_000, Measure: 500_000, BaseSeed: 1}
	rep := runReport(t, "fig5", o)
	if want := len(workload.PaperWorkloads()) * len(fig5Bars); len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), want)
	}
	// Labels: workload, bar; one value: normalized performance.
	for _, row := range rep.Rows {
		wl, v := row.Labels[0], row.Values[0]
		switch row.Labels[1] {
		case "Unprotected with fault":
			if !v.Crashed {
				t.Errorf("%s: unprotected system survived the fault", wl)
			}
		case "SafetyNet fault-free":
			if v.Crashed {
				t.Errorf("%s: SafetyNet fault-free crashed", wl)
			}
			// Short single-run windows are noisy; the paper's claim is
			// statistical similarity, so just bound the deviation.
			if v.Mean < 0.80 || v.Mean > 1.25 {
				t.Errorf("%s: SafetyNet fault-free normalized perf %.3f far from 1.0", wl, v.Mean)
			}
		case "SafetyNet with transient faults":
			if v.Crashed || v.Mean < 0.5 {
				t.Errorf("%s: transient-fault bar %.3f (crash=%v)", wl, v.Mean, v.Crashed)
			}
		case "SafetyNet with a hard fault":
			if v.Crashed || v.Mean < 0.5 {
				t.Errorf("%s: hard-fault bar %.3f (crash=%v)", wl, v.Mean, v.Crashed)
			}
		}
	}
	if !strings.Contains(rep.Render(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestFig8BackpressureCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := runner.Options{Runs: 1, Warmup: 200_000, Measure: 500_000, BaseSeed: 1}
	rep := runReport(t, "fig8", o)
	if len(rep.Rows) != len(workload.PaperWorkloads()) {
		t.Fatalf("rows = %d, want one per paper workload", len(rep.Rows))
	}
	// One row per workload; columns run from the largest CLB to the
	// smallest.
	degraded := 0
	for _, row := range rep.Rows {
		mBig, mSmall := row.Values[0].Mean, row.Values[len(row.Values)-1].Mean
		if mBig < 0.99 || mBig > 1.01 {
			t.Errorf("%s: largest CLB should normalize to 1.0, got %.3f", row.Labels[0], mBig)
		}
		if mSmall < mBig*0.9 {
			degraded++
		}
	}
	if degraded < 3 {
		t.Errorf("only %d workloads degraded at the smallest CLB; expected the cliff", degraded)
	}
	if !strings.Contains(rep.Render(), "Figure 8") {
		t.Error("render missing title")
	}
}

// TestCrashRuleInEveryReduce: under a configuration that rejects every
// protected run, each value cell of the experiments that report one
// run's (or one design point's) measurements is a crash marker, never
// the crashed run's zeroed counters folded into a number.
func TestCrashRuleInEveryReduce(t *testing.T) {
	base := config.Default()
	base.MaxOutstandingCheckpoints = 0
	o := runner.Options{Runs: 1, Warmup: 20_000, Measure: 60_000, BaseSeed: 1}
	for _, name := range []string{"fig6", "fig7", "fig8", "recovery", "detect", "snoopdetect"} {
		rep, err := RunExperiment(name, base, o)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, row := range rep.Rows {
			for _, v := range row.Values {
				cells++
				if !v.Crashed {
					t.Errorf("%s %v: %+v is not a crash marker", name, row.Labels, v)
				}
			}
		}
		if cells == 0 {
			t.Errorf("%s reported no value cells", name)
		}
	}
}
