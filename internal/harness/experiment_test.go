package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"safetynet/internal/campaign/report"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

func TestRegistryCatalog(t *testing.T) {
	want := []string{"table2", "fig5", "fig6", "fig7", "fig8", "recovery", "detect", "snoopdetect", "protocols"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name)
		if e.Title == "" || e.Description == "" {
			t.Errorf("experiment %s lacks a title or description", e.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
}

// TestGridsPinned pins the catalog's names, titles and descriptions in
// order, and every grid experiment's runs in grid order: parameters,
// workload, phases and fault plan, at three sizings over two bases (the
// second one invalid, so a protected run crashes). The digests were
// captured before fig8, protocols and recovery were declared through
// paperCampaign (fig8 was a hand-written loop, the other two campaigns
// of their own), so each is shown to run exactly what it ran before.
// Labels are left out: campaign points carry a seed label that no
// reduce reads.
func TestGridsPinned(t *testing.T) {
	want := map[string]string{
		"catalog":     "7618ead5f0945a4023e18ac8604547f5e26912aebf4526bd6398ac27b49f8610",
		"fig5":        "cc158486f852b6ce52e303fe18b0b52e5c1c43c247117b203c3a0752867f3e29",
		"fig6":        "1ebca395c45180e6789fe5b20c5f88017c7a2beec379b5097edfd1291cde4e41",
		"fig7":        "1ebca395c45180e6789fe5b20c5f88017c7a2beec379b5097edfd1291cde4e41",
		"fig8":        "c313015713a644b6db8c950b6a8172d5418cf0bcdcaab61740cd03e7709e0dd4",
		"recovery":    "1ef41b3b44a10f6b4c4b49cb632db62b1354f948efd53ae7e5dddf271ce300f8",
		"detect":      "efd16fed2b19642eb6e52c518c6ca91566d6a363a7765b9a3eba866a63ac4ec0",
		"snoopdetect": "36e2b12c6af2e9fcad80eaa4977e832d205cc4c6f3a531e43c48f8e5aec1e9ad",
		"protocols":   "7aeb6e8fcfad14b920b8279d7ca919c48244134245f3ff474c05599f55a2da89",
	}
	noBound := config.Default()
	noBound.MaxOutstandingCheckpoints = 0
	bases := []config.Params{config.Default(), noBound}
	sizings := []runner.Options{
		runner.QuickOptions(),
		runner.DefaultOptions(),
		{Runs: 2, Warmup: 20_000, Measure: 60_000, BaseSeed: 7},
	}
	got := map[string]string{}
	cat := sha256.New()
	for _, e := range Experiments() {
		fmt.Fprintf(cat, "%s\x00%s\x00%s\n", e.Name, e.Title, e.Description)
		if e.Grid == nil {
			continue
		}
		h := sha256.New()
		for _, base := range bases {
			for _, o := range sizings {
				for _, pt := range e.Grid(base, o) {
					plan, err := json.Marshal(pt.Run.Fault)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%+v|%s|%d|%d|%s\n", pt.Run.Params, pt.Run.Workload, pt.Run.Warmup, pt.Run.Measure, plan)
				}
			}
		}
		got[e.Name] = hex.EncodeToString(h.Sum(nil))
	}
	got["catalog"] = hex.EncodeToString(cat.Sum(nil))
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest = %s, want %s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("digested %d entries, want %d", len(got), len(want))
	}
}

func TestRunExperimentUnknownName(t *testing.T) {
	_, err := RunExperiment("fig9", config.Default(), runner.QuickOptions())
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	if !strings.Contains(err.Error(), "fig6") {
		t.Errorf("error %q does not list valid names", err)
	}
}

func TestRunExperimentTable2(t *testing.T) {
	rep, err := RunExperiment("table2", config.Default(), runner.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "table2" || len(rep.Rows) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Render(), "2D torus") {
		t.Error("render missing torus row")
	}
}

// multiFaultPlan layers periodic message drops with a half-switch kill —
// a combination the old flat fault descriptor could not express.
func multiFaultPlan() fault.Plan {
	return fault.Plan{
		fault.DropEvery{Start: 300_000, Period: 400_000},
		fault.KillSwitch{Node: victimSwitchNode, Axis: topology.EW, At: 500_000},
	}
}

func TestRunMultiFaultPlan(t *testing.T) {
	res := runner.Run(runner.RunConfig{
		Params: config.Default(), Workload: "barnes",
		Warmup: 200_000, Measure: 1_400_000,
		Fault: multiFaultPlan(),
	})
	if res.Crashed {
		t.Fatalf("protected system crashed under the multi-fault plan: %s", res.CrashCause)
	}
	if res.Recoveries == 0 {
		t.Fatal("multi-fault plan caused no recoveries")
	}
	if res.NetDropped == 0 {
		t.Fatal("no messages lost despite drops and a dead switch")
	}
}

func TestRunInvalidFaultPlanReportsCrash(t *testing.T) {
	// Degenerate options can build degenerate plans (zero drop period);
	// Run must surface that as a crashed result, not a panic.
	res := runner.Run(runner.RunConfig{
		Params: config.Default(), Workload: "barnes", Warmup: 0, Measure: 4,
		Fault: fault.Plan{fault.DropEvery{Start: 0, Period: 0}},
	})
	if !res.Crashed {
		t.Fatal("invalid fault plan must mark the run crashed")
	}
	if !strings.Contains(res.CrashCause, "invalid fault plan") {
		t.Fatalf("CrashCause = %q", res.CrashCause)
	}
}

// tinyExperiment is a small unregistered experiment exercising the grid,
// runner and reduce machinery quickly across two workloads.
func tinyExperiment() Experiment {
	return Experiment{
		Name:  "tiny",
		Title: "tiny determinism probe",
		Grid: func(base config.Params, o runner.Options) []Point {
			var pts []Point
			for _, wl := range []string{"barnes", "stress"} {
				for i := 0; i < 3; i++ {
					pts = append(pts, Point{
						Labels: map[string]string{"workload": wl},
						Run: runner.RunConfig{
							Params: perturbed(base, o, i), Workload: wl,
							Warmup: o.Warmup, Measure: o.Measure,
						},
					})
				}
			}
			return pts
		},
		Reduce: func(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
			rep := &Report{Title: "tiny", LabelCols: []string{"i", "workload"}, ValueCols: []string{"ipc"}}
			for i := range pts {
				rep.Rows = append(rep.Rows, Row{
					Labels: []string{string(rune('a' + i)), pts[i].Label("workload")},
					Values: []Value{Scalar(res[i].IPC)},
				})
			}
			return rep
		},
	}
}

func TestParallelRunsAreDeterministic(t *testing.T) {
	base := config.Default()
	o := runner.Options{Runs: 1, Warmup: 80_000, Measure: 200_000, BaseSeed: 1}
	e := tinyExperiment()
	pts := e.Grid(base, o)

	// The runner must produce identical per-point results in point order
	// regardless of scheduling.
	sRes := RunPoints(pts, 1)
	pRes := RunPoints(pts, 4)
	if !reflect.DeepEqual(sRes, pRes) {
		t.Fatal("RunPoints results differ between serial and parallel execution")
	}

	sText := e.Reduce(base, o, pts, sRes).Render()
	pText := e.Reduce(base, o, pts, pRes).Render()
	if sText != pText {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sText, pText)
	}
}

// TestSnoopBackendRun drives the snooping system through the shared
// runner: the protocol-neutral counters must be measured and a fault
// plan armed on the snoop data network must recover, not crash.
func TestSnoopBackendRun(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "jbb", Warmup: 150_000, Measure: 450_000,
		Fault: fault.Plan{fault.DropOnce{At: 250_000}},
	})
	if res.Crashed {
		t.Fatalf("snoop run crashed: %s", res.CrashCause)
	}
	if res.Instrs == 0 || res.IPC <= 0 || res.NetSent == 0 {
		t.Fatalf("counters not measured: %+v", res)
	}
	if res.StoresLogged == 0 || res.TransfersLogged == 0 {
		t.Fatalf("logging counters empty: %+v", res)
	}
	if res.NetDropped != 1 || res.Recoveries == 0 || res.InstrsRolledBack == 0 {
		t.Fatalf("fault did not convert into a recovery: %+v", res)
	}
}

// TestSnoopRunUnsupportedFaultReportsCrash: a plan the snoop backend
// cannot express fails at arm time and surfaces as a crashed run, never
// a panic inside a worker.
func TestSnoopRunUnsupportedFaultReportsCrash(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "jbb", Warmup: 0, Measure: 10_000,
		Fault: fault.Plan{fault.KillSwitch{Node: 5, Axis: topology.EW, At: 5_000}},
	})
	if !res.Crashed || !strings.Contains(res.CrashCause, "invalid fault plan") {
		t.Fatalf("res = %+v", res)
	}
}

// TestSnoopdetectProtocolsDeterministicUnderParallelism: snoopdetect and
// protocols must render identically whether their points run serially or
// on a worker pool.
func TestSnoopdetectProtocolsDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := config.Default()
	o := runner.Options{Runs: 1, Warmup: 100_000, Measure: 200_000, BaseSeed: 1}
	for _, name := range []string{"snoopdetect", "protocols"} {
		serial := o
		serial.Workers = 1
		parallel := o
		parallel.Workers = 4
		sRep, err := RunExperiment(name, base, serial)
		if err != nil {
			t.Fatal(err)
		}
		pRep, err := RunExperiment(name, base, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if sRep.Render() != pRep.Render() {
			t.Fatalf("%s: parallel rendering differs from serial", name)
		}
		if len(sRep.Rows) == 0 {
			t.Fatalf("%s: empty report", name)
		}
	}
}

// TestProtocolsReportShape checks the side-by-side grid covers every
// (workload, protocol) pair with both value columns populated.
func TestProtocolsReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunExperiment("protocols", config.Default(),
		runner.Options{Runs: 1, Warmup: 80_000, Measure: 160_000, BaseSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 5 workloads x 2 protocols", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Labels) != 2 || len(row.Values) != 2 {
			t.Fatalf("malformed row: %+v", row)
		}
		if row.Values[0].Crashed || row.Values[0].Mean <= 0 {
			t.Fatalf("point %v measured no throughput: %+v", row.Labels, row.Values)
		}
	}
}

// TestRecoveryGridClampsDegeneratePeriod: a tiny measurement window must
// not produce a zero-period (unarmable) fault plan.
func TestRecoveryGridClampsDegeneratePeriod(t *testing.T) {
	pts := recoveryGrid(config.Default(), runner.Options{Runs: 1, Warmup: 0, Measure: 3, BaseSeed: 1})
	m := newTestMachineTarget(t)
	for _, pt := range pts {
		if err := pt.Run.Fault.Arm(m); err != nil {
			t.Fatalf("plan %s failed to arm: %v", pt.Run.Fault, err)
		}
	}
}

func newTestMachineTarget(t *testing.T) fault.Target {
	t.Helper()
	prof, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	be, err := runner.NewBackend(config.Default(), prof)
	if err != nil {
		t.Fatal(err)
	}
	return be.FaultTarget()
}

func TestParallelFig6MatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := config.Default()
	o := tinyOptions()
	serial := o
	serial.Workers = 1
	parallel := o
	parallel.Workers = 5

	sRep, err := RunExperiment("fig6", base, serial)
	if err != nil {
		t.Fatal(err)
	}
	pRep, err := RunExperiment("fig6", base, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if sRep.Render() != pRep.Render() {
		t.Fatal("fig6 parallel rendering differs from serial")
	}
	sJSON, _ := report.Encode(sRep, "json")
	pJSON, _ := report.Encode(pRep, "json")
	if string(sJSON) != string(pJSON) {
		t.Fatal("fig6 parallel JSON differs from serial")
	}
}
