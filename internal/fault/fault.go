// Package fault defines composable fault-injection plans and the one
// injector that fires them. A Plan is an ordered list of typed fault
// events — transient message losses, message corruption, misrouting,
// duplication, and hard half-switch failures — that are armed together on
// one simulated system before it starts. A single run can layer any
// combination (e.g. periodic drops plus a switch kill), which the paper's
// two running examples exercise individually.
//
// Every message-level event arms on an Injector, which both interconnects
// ask once per eligible send and which fires by one rule on the torus and
// on the bus. A one-shot event is due at the first eligible send at or
// after its time; a drop-every is due at the first eligible send at or
// after its next time, which then becomes that send's time plus the
// period. On a send, the first due drop, in arm order, loses the message
// and nothing else fires on it; otherwise every due corrupt, misroute and
// duplicate event fires, in arm order, and a duplicate copies the message
// as those events left it. On the torus, drops, corruptions and misroutes
// need a data-carrying coherence message and a duplicate takes any
// coherence message; on the bus every data message is eligible.
// Misroutes and switch kills need the routed torus. Every firing, switch
// kills included, is reported through the injector's one OnFire hook.
package fault

import (
	"errors"
	"fmt"
	"strings"

	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

// ErrUnsupported marks a fault event the target backend cannot express
// (e.g. a half-switch kill on a snooping bus, which has no switches).
// Arm wraps it, so callers test with errors.Is.
var ErrUnsupported = errors.New("fault event unsupported on this backend")

// Target is the slice of a simulated system that fault events act on: the
// injector its interconnect asks on every send, the engine that schedules
// switch kills, and the torus whose half-switches they kill. The snooping
// bus has no torus, so Topo is nil there and Arm rejects misroutes and
// switch kills with ErrUnsupported.
type Target struct {
	Faults *Injector
	Eng    *sim.Engine
	Topo   *topology.Torus
}

// validate reports a target with no interconnect at all.
func (t Target) validate() error {
	if t.Faults == nil {
		return errors.New("target has no interconnect to arm faults on")
	}
	return nil
}

// validateAt validates a one-shot event due at cycle at.
func validateAt(t Target, at sim.Time, what string) error {
	if err := t.validate(); err != nil {
		return err
	}
	if at <= 0 {
		return fmt.Errorf("%s time must be positive, got %d", what, at)
	}
	return nil
}

// Event is one typed fault in a Plan. Arm schedules or installs the
// fault on the target; it is called once, before the system starts.
type Event interface {
	// Arm installs the fault. An event with impossible parameters (e.g.
	// a switch kill on an out-of-range node) returns an error instead of
	// corrupting the run.
	Arm(t Target) error
	// String describes the event for reports and logs.
	String() string
}

// Plan is an ordered list of fault events armed together on one run.
// The zero value is the fault-free plan.
type Plan []Event

// Arm installs every event of the plan on the target, stopping at the
// first invalid event.
func (p Plan) Arm(t Target) error {
	for i, ev := range p {
		if err := ev.Arm(t); err != nil {
			return fmt.Errorf("fault plan event %d (%s): %w", i, ev, err)
		}
	}
	return nil
}

// String renders the plan as a compact event list.
func (p Plan) String() string {
	if len(p) == 0 {
		return "fault-free"
	}
	parts := make([]string, len(p))
	for i, ev := range p {
		parts[i] = ev.String()
	}
	return strings.Join(parts, " + ")
}

// DropOnce is a one-shot transient interconnect fault: the first
// data-bearing coherence message sent at or after At is lost (paper
// Table 1, "Dropped Message").
type DropOnce struct {
	At sim.Time
}

func (e DropOnce) Arm(t Target) error {
	if err := validateAt(t, e.At, "drop"); err != nil {
		return err
	}
	t.Faults.add(dropOnce, e.At, 0)
	return nil
}

func (e DropOnce) String() string { return fmt.Sprintf("drop-once@%d", e.At) }

// DropEvery is the paper's Experiment 2 transient-fault model: one
// data-bearing coherence message is lost per Period, starting at Start
// (the paper drops one per 100M cycles — ten per second at 1 GHz).
type DropEvery struct {
	Start, Period sim.Time
}

func (e DropEvery) Arm(t Target) error {
	if err := t.validate(); err != nil {
		return err
	}
	if e.Period <= 0 {
		return fmt.Errorf("drop period must be positive, got %d", e.Period)
	}
	t.Faults.add(dropEvery, e.Start, e.Period)
	return nil
}

func (e DropEvery) String() string {
	return fmt.Sprintf("drop-every@%d+%dk", e.Start, e.Period/1000)
}

// CorruptOnce damages one data-bearing coherence message in flight at or
// after At; the endpoint's error-detecting code discovers the damage and
// reports the fault (the paper's CRC example).
type CorruptOnce struct {
	At sim.Time
}

func (e CorruptOnce) Arm(t Target) error {
	if err := validateAt(t, e.At, "corruption"); err != nil {
		return err
	}
	t.Faults.add(corruptOnce, e.At, 0)
	return nil
}

func (e CorruptOnce) String() string { return fmt.Sprintf("corrupt-once@%d", e.At) }

// MisrouteOnce delivers one data-bearing coherence message to the wrong
// node at or after At (paper §5.1); the requestor's timeout converts the
// loss into a recovery.
type MisrouteOnce struct {
	At sim.Time
}

func (e MisrouteOnce) Arm(t Target) error {
	if err := validateAt(t, e.At, "misroute"); err != nil {
		return err
	}
	if t.Topo == nil {
		// The snoop data network matches responses to transactions by
		// address, not by routed destination; a misdelivered message is
		// indistinguishable from a drop there, so the event is undefined.
		return fmt.Errorf("%w: misrouting needs the routed torus data network", ErrUnsupported)
	}
	t.Faults.add(misrouteOnce, e.At, 0)
	return nil
}

func (e MisrouteOnce) String() string { return fmt.Sprintf("misroute-once@%d", e.At) }

// DuplicateOnce delivers one coherence message twice at or after At (the
// paper's §5.1 protocol-engine soft fault); transaction matching must
// absorb the duplicate.
type DuplicateOnce struct {
	At sim.Time
}

func (e DuplicateOnce) Arm(t Target) error {
	if err := validateAt(t, e.At, "duplication"); err != nil {
		return err
	}
	t.Faults.add(duplicateOnce, e.At, 0)
	return nil
}

func (e DuplicateOnce) String() string { return fmt.Sprintf("duplicate-once@%d", e.At) }

// KillSwitch is the hard fault of the paper's Experiment 3: the given
// half-switch of Node dies at At, irretrievably losing every message
// buffered inside it; routing reconfigures around the dead half.
type KillSwitch struct {
	Node int
	Axis topology.Axis // which half-switch dies: topology.EW or topology.NS
	At   sim.Time
}

func (e KillSwitch) Arm(t Target) error {
	if err := t.validate(); err != nil {
		return err
	}
	if t.Topo == nil {
		return fmt.Errorf("%w: a snooping bus has no half-switches to kill", ErrUnsupported)
	}
	if e.Node < 0 || e.Node >= t.Topo.Nodes() {
		return fmt.Errorf("node %d out of range [0, %d)", e.Node, t.Topo.Nodes())
	}
	if e.At <= 0 {
		return fmt.Errorf("kill time must be positive, got %d", e.At)
	}
	sw := t.Topo.EWSwitch(e.Node)
	if e.Axis == topology.NS {
		sw = t.Topo.NSSwitch(e.Node)
	}
	t.Eng.Schedule(e.At, func() {
		t.Topo.Kill(sw)
		t.Faults.note(t.Eng.Now(), killSwitch)
	})
	return nil
}

func (e KillSwitch) String() string {
	axis := "EW"
	if e.Axis == topology.NS {
		axis = "NS"
	}
	return fmt.Sprintf("kill-%s(%d)@%d", axis, e.Node, e.At)
}
