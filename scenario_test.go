package safetynet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeScenario round-trips a scenario through an actual file, the way
// snsim -scenario consumes it.
func writeScenario(t *testing.T, sc *Scenario) string {
	t.Helper()
	data, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// shortScenarioBudgetCycles mirrors cmd/snsim's -short scaling.
const shortScenarioBudgetCycles = 1_600_000

// TestExampleScenarios runs every checked-in example scenario once at
// snsim's -short budget: each must load, retire instructions, and meet
// its own expectations, as `snsim -scenario <f> -short` requires.
func TestExampleScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 7 {
		t.Fatalf("expected the seven checked-in example scenarios, found %d: %v", len(paths), paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			sc.ScaleTo(shortScenarioBudgetCycles)
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Instrs == 0 {
				t.Error("the scenario retired no instructions")
			}
			if err := sc.Check(res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestScenarioFlagEquivalence: the two running-example faults produce
// the same Result whether described by a scenario file or by the legacy
// hand-wired New/Inject path that cmd/snsim's flags build.
func TestScenarioFlagEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		wl      string
		horizon uint64
		fault   FaultEvent
	}{
		{"dropped message", "apache", 3_000_000, DropOnce(1_000_000)},
		// The kill must catch a message in flight through the switch to
		// manifest (in-flight state at the kill cycle shifts whenever the
		// engine's within-cycle ordering contract changes).
		{"killed half-switch", "jbb", 2_500_000, KillEWSwitch(5, 1_300_000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Legacy path: flags hand-wired onto the facade.
			sys, err := New(DefaultConfig(), c.wl)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Inject(c.fault); err != nil {
				t.Fatal(err)
			}
			sys.Start()
			sys.Run(c.horizon)
			want := sys.Result()

			// Scenario path: the same run as declarative data, through a
			// real file.
			sc := &Scenario{
				Workload:      c.wl,
				MeasureCycles: c.horizon,
				Faults:        FaultPlan{c.fault},
			}
			loaded, err := LoadScenario(writeScenario(t, sc))
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("scenario result diverged from the flag path:\n got %+v\nwant %+v", got, want)
			}
			if want.Recoveries == 0 {
				t.Fatal("precondition: the fault should have triggered a recovery")
			}
		})
	}
}

// TestScenarioBackendRejectsFault: a checked-in scenario whose fault
// plan the selected backend cannot express fails at build time with the
// typed sentinel, not at run time with a corrupted simulation.
func TestScenarioBackendRejectsFault(t *testing.T) {
	sc, err := LoadScenario(filepath.Join("testdata", "snoop-killswitch.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.System(); !errors.Is(err, ErrFaultUnsupported) {
		t.Fatalf("err = %v, want ErrFaultUnsupported", err)
	}
	if _, err := sc.Run(); !errors.Is(err, ErrFaultUnsupported) {
		t.Fatalf("Run err = %v, want ErrFaultUnsupported", err)
	}
}

// TestScenarioOnSnoopBackend: the same declarative form runs on the
// snooping backend when the overrides select it.
func TestScenarioOnSnoopBackend(t *testing.T) {
	proto := ProtocolSnoop
	sc := &Scenario{
		Workload:      "stress",
		MeasureCycles: 1_200_000,
		Overrides:     &ScenarioOverrides{Protocol: &proto},
		Faults:        FaultPlan{DropOnce(200_000)},
		Expect:        &ScenarioExpect{MinRecoveries: 1},
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != ProtocolSnoop {
		t.Fatalf("Protocol = %q", res.Protocol)
	}
	if err := sc.Check(res); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioNormalizesConfig: a scenario overriding the checkpoint
// interval alone gets consistent dependent knobs, the clamping snsim
// used to hand-roll.
func TestScenarioNormalizesConfig(t *testing.T) {
	iv := uint64(25_000)
	sc := &Scenario{
		Workload:      "oltp",
		MeasureCycles: 500_000,
		Overrides:     &ScenarioOverrides{CheckpointIntervalCycles: &iv},
	}
	p, err := sc.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.ValidationSignoffCycles != iv {
		t.Fatalf("signoff = %d, want clamped to %d", p.ValidationSignoffCycles, iv)
	}
	if p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles {
		t.Fatal("watchdog not normalized")
	}
}

// TestRunObserverDirectory: the observer hooks replace white-box
// Machine() access for common instrumentation — fault firings,
// recoveries, and recovery-point advances all surface, on the default
// backend.
func TestRunObserverDirectory(t *testing.T) {
	sys, err := New(DefaultConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(DropOnce(200_000)); err != nil {
		t.Fatal(err)
	}
	var (
		faults     []string
		starts     int
		completes  int
		advances   int
		lastCkpt   uint32
		crashCalls int
	)
	sys.Observe(&RunObserver{
		FaultFired: func(_ uint64, kind string) { faults = append(faults, kind) },
		RecoveryStarted: func(_ uint64, cause string) {
			if cause == "" {
				t.Error("empty recovery cause")
			}
			starts++
		},
		RecoveryCompleted: func(_ uint64, ckpt uint32, latency uint64) {
			if latency == 0 {
				t.Error("zero recovery latency")
			}
			completes++
		},
		CheckpointAdvanced: func(_ uint64, ckpt uint32) {
			if ckpt <= lastCkpt {
				t.Errorf("recovery point moved backward: %d after %d", ckpt, lastCkpt)
			}
			lastCkpt = ckpt
			advances++
		},
		Crashed: func(uint64, string) { crashCalls++ },
	})
	sys.Start()
	sys.Run(1_500_000)

	if len(faults) != 1 || faults[0] != "drop-once" {
		t.Fatalf("faults = %v, want [drop-once]", faults)
	}
	r := sys.Result()
	if starts != r.Recoveries || completes != r.Recoveries || r.Recoveries == 0 {
		t.Fatalf("starts=%d completes=%d, Result.Recoveries=%d", starts, completes, r.Recoveries)
	}
	if advances == 0 || lastCkpt != r.RecoveryPoint {
		t.Fatalf("advances=%d lastCkpt=%d, Result.RecoveryPoint=%d", advances, lastCkpt, r.RecoveryPoint)
	}
	if crashCalls != 0 {
		t.Fatal("protected run reported a crash")
	}
}

// TestRunObserverCrash: the unprotected baseline reports its death.
func TestRunObserverCrash(t *testing.T) {
	sys, err := New(UnprotectedConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(DropOnce(200_000)); err != nil {
		t.Fatal(err)
	}
	var crashCause string
	sys.Observe(&RunObserver{
		Crashed: func(_ uint64, cause string) { crashCause = cause },
	})
	sys.Start()
	sys.Run(2_000_000)
	if !sys.Result().Crashed {
		t.Fatal("precondition: the unprotected run should crash")
	}
	if crashCause == "" {
		t.Fatal("Crashed observer did not fire")
	}
}

// TestRunObserverSnoop: the same observer works unchanged on the
// snooping backend.
func TestRunObserverSnoop(t *testing.T) {
	sys, err := New(SnoopConfig(), "stress")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(DropOnce(200_000)); err != nil {
		t.Fatal(err)
	}
	var faults []string
	var starts, completes, advances int
	sys.Observe(&RunObserver{
		FaultFired:         func(_ uint64, kind string) { faults = append(faults, kind) },
		RecoveryStarted:    func(uint64, string) { starts++ },
		RecoveryCompleted:  func(uint64, uint32, uint64) { completes++ },
		CheckpointAdvanced: func(uint64, uint32) { advances++ },
	})
	sys.Start()
	sys.Run(1_200_000)
	r := sys.Result()
	if len(faults) != 1 || faults[0] != "drop-once" {
		t.Fatalf("faults = %v", faults)
	}
	if r.Recoveries == 0 || starts != r.Recoveries || completes != r.Recoveries {
		t.Fatalf("starts=%d completes=%d, Recoveries=%d", starts, completes, r.Recoveries)
	}
	if advances == 0 {
		t.Fatal("no recovery-point advances observed")
	}
}
