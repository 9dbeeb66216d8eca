package fault_test

import (
	"strings"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/machine"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

func newMachine(t *testing.T, protected bool) *machine.Machine {
	t.Helper()
	p := config.Default()
	p.SafetyNetEnabled = protected
	prof, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	return machine.New(p, prof)
}

func TestPlanString(t *testing.T) {
	if got := (fault.Plan{}).String(); got != "fault-free" {
		t.Fatalf("empty plan String = %q", got)
	}
	p := fault.Plan{
		fault.DropEvery{Start: 100, Period: 2000},
		fault.KillSwitch{Node: 5, Axis: topology.NS, At: 300},
	}
	s := p.String()
	for _, want := range []string{"drop-every", "kill-NS(5)@300", " + "} {
		if !strings.Contains(s, want) {
			t.Errorf("plan String %q missing %q", s, want)
		}
	}
}

func TestArmRejectsInvalidEvents(t *testing.T) {
	m := newMachine(t, true)
	bad := []fault.Plan{
		{fault.DropOnce{At: 0}},
		{fault.DropEvery{Start: 100, Period: 0}},
		{fault.KillSwitch{Node: -1, At: 100}},
		{fault.KillSwitch{Node: m.Topo.Nodes(), At: 100}},
		{fault.KillSwitch{Node: 0, At: 0}},
		{fault.CorruptOnce{At: 0}},
		{fault.MisrouteOnce{At: 0}},
		{fault.DuplicateOnce{At: 0}},
	}
	for _, p := range bad {
		if err := p.Arm(m.FaultTarget()); err == nil {
			t.Errorf("plan %s: invalid event armed without error", p)
		}
	}
}

func TestArmStopsAtFirstInvalidEvent(t *testing.T) {
	m := newMachine(t, true)
	p := fault.Plan{
		fault.DropOnce{At: 1000},
		fault.KillSwitch{Node: -7, At: 100},
		fault.DropOnce{At: 2000},
	}
	err := p.Arm(m.FaultTarget())
	if err == nil {
		t.Fatal("invalid middle event must fail the plan")
	}
	if !strings.Contains(err.Error(), "event 1") {
		t.Errorf("error %q does not identify the failing event", err)
	}
}

func TestKillSwitchAxes(t *testing.T) {
	m := newMachine(t, true)
	p := fault.Plan{
		fault.KillSwitch{Node: 3, Axis: topology.EW, At: 1000},
		fault.KillSwitch{Node: 3, Axis: topology.NS, At: 1000},
	}
	if err := p.Arm(m.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Run(2000)
	if m.Topo.DeadCount() != 2 {
		t.Fatalf("DeadCount = %d after EW+NS kill, want 2", m.Topo.DeadCount())
	}
	if m.Topo.AxisOf(m.Topo.NSSwitch(3)) != topology.NS {
		t.Fatal("NS half-switch mapped to wrong axis")
	}
}

func TestSingleDropRecoversProtected(t *testing.T) {
	m := newMachine(t, true)
	if err := (fault.Plan{fault.DropOnce{At: 200_000}}).Arm(m.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Run(sim.Time(2_000_000))
	if m.Crashed {
		t.Fatalf("protected system crashed: %s", m.CrashCause)
	}
	if m.Net.DroppedTotal() == 0 {
		t.Fatal("fault never fired")
	}
}
