package fault_test

import (
	"errors"
	"reflect"
	"testing"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/snoop"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// TestEveryEventArmsOrRejectsOnBothBackends is the cross-backend arming
// contract: every fault event, armed with valid parameters, must either
// install on the target or fail with a typed ErrUnsupported — never
// panic, and never fail with an untyped error.
func TestEveryEventArmsOrRejectsOnBothBackends(t *testing.T) {
	events := []struct {
		ev fault.Event
		// supportedOnSnoop marks events the bus data network can express.
		supportedOnSnoop bool
	}{
		{fault.DropOnce{At: 10_000}, true},
		{fault.DropEvery{Start: 10_000, Period: 50_000}, true},
		{fault.CorruptOnce{At: 10_000}, true},
		{fault.DuplicateOnce{At: 10_000}, true},
		{fault.MisrouteOnce{At: 10_000}, false},
		{fault.KillSwitch{Node: 1, Axis: topology.EW, At: 10_000}, false},
		{fault.KillSwitch{Node: 2, Axis: topology.NS, At: 10_000}, false},
	}

	m := newMachine(t, true)
	sn := snoop.New(config.SmallSnoop(), workload.Stress())
	backends := []struct {
		name     string
		target   fault.Target
		supports func(supportedOnSnoop bool) bool
	}{
		{"directory", m.FaultTarget(), func(bool) bool { return true }},
		{"snoop", sn.FaultTarget(), func(s bool) bool { return s }},
	}

	for _, be := range backends {
		for _, tc := range events {
			err := tc.ev.Arm(be.target)
			if be.supports(tc.supportedOnSnoop) {
				if err != nil {
					t.Errorf("%s: %s failed to arm: %v", be.name, tc.ev, err)
				}
				continue
			}
			if !errors.Is(err, fault.ErrUnsupported) {
				t.Errorf("%s: %s err = %v, want ErrUnsupported", be.name, tc.ev, err)
			}
		}
	}
}

// TestEmptyTargetRejected: a target with no interconnect at all must
// error, not dereference nil.
func TestEmptyTargetRejected(t *testing.T) {
	for _, ev := range []fault.Event{
		fault.DropOnce{At: 1},
		fault.DropEvery{Start: 1, Period: 1},
		fault.CorruptOnce{At: 1},
		fault.DuplicateOnce{At: 1},
		fault.MisrouteOnce{At: 1},
		fault.KillSwitch{Node: 0, Axis: topology.EW, At: 1},
	} {
		if err := ev.Arm(fault.Target{}); err == nil {
			t.Errorf("%s armed on an empty target", ev)
		}
	}
}

// TestCorruptLossAccountingMatchesAcrossBackends: a corrupted message is
// discarded at the endpoint's CRC check, so both backends must count it
// in Counters.MessagesDropped.
func TestCorruptLossAccountingMatchesAcrossBackends(t *testing.T) {
	m := newMachine(t, true)
	if err := (fault.CorruptOnce{At: 300_000}).Arm(m.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Run(1_500_000)
	if c := m.Counters(); c.MessagesDropped == 0 || c.Recoveries == 0 {
		t.Fatalf("directory corrupt loss not accounted: %+v", c)
	}

	sn := snoop.New(config.SmallSnoop(), workload.Stress())
	if err := (fault.CorruptOnce{At: 60_000}).Arm(sn.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	sn.Start()
	sn.Run(400_000)
	if c := sn.Counters(); c.MessagesDropped == 0 || c.Recoveries == 0 {
		t.Fatalf("snoop corrupt loss not accounted: %+v", c)
	}
}

// TestSnoopPlanThroughSharedPath arms a composed plan on the snoop
// backend through Plan.Arm, mirroring what harness.Run does.
func TestSnoopPlanThroughSharedPath(t *testing.T) {
	sn := snoop.New(config.SmallSnoop(), workload.Stress())
	plan := fault.Plan{
		fault.DropOnce{At: 40_000},
		fault.DropEvery{Start: 100_000, Period: 200_000},
		fault.CorruptOnce{At: 60_000},
	}
	if err := plan.Arm(sn.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	bad := fault.Plan{
		fault.DropOnce{At: 40_000},
		fault.KillSwitch{Node: 3, Axis: topology.EW, At: 50_000},
	}
	err := bad.Arm(sn.FaultTarget())
	if !errors.Is(err, fault.ErrUnsupported) {
		t.Fatalf("plan with a switch kill on the bus: err = %v", err)
	}
}

// TestCoincidentEventsFireAlikeOnBothBackends arms plans whose two events
// fall due on the same send and checks that the torus and the bus fire
// them in the same order: drops first, in arm order, and a drop ends the
// send, so the other event fires on a later message.
func TestCoincidentEventsFireAlikeOnBothBackends(t *testing.T) {
	const at = 200_000
	plans := []fault.Plan{
		{fault.CorruptOnce{At: at}, fault.DropOnce{At: at}},
		{fault.DropEvery{Start: at, Period: 10 * at}, fault.DropOnce{At: at}},
		{fault.DuplicateOnce{At: at}, fault.CorruptOnce{At: at}},
	}
	for _, plan := range plans {
		fired := map[string][]string{}
		for _, proto := range config.Protocols() {
			p := config.Default()
			p.Protocol = proto
			be, err := runner.NewBackend(p, workload.OLTP())
			if err != nil {
				t.Fatal(err)
			}
			be.Observe(&backend.Observer{FaultFired: func(_ uint64, kind string) {
				fired[proto] = append(fired[proto], kind)
			}})
			if err := plan.Arm(be.FaultTarget()); err != nil {
				t.Fatal(err)
			}
			be.Start()
			be.Run(at + 50_000)
			if len(fired[proto]) != len(plan) {
				t.Fatalf("%s: plan %s fired %v", proto, plan, fired[proto])
			}
		}
		dir, bus := fired[config.ProtocolDirectory], fired[config.ProtocolSnoop]
		if !reflect.DeepEqual(dir, bus) {
			t.Errorf("plan %s: torus fired %v, bus fired %v", plan, dir, bus)
		}
	}
}
