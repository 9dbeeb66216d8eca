// Package fault defines composable fault-injection plans. A Plan is an
// ordered list of typed fault events — transient message losses, message
// corruption, misrouting, duplication, and hard half-switch failures —
// that are armed together on one simulated system before it starts. A
// single run can layer any combination (e.g. periodic drops plus a
// switch kill), which the paper's two running examples exercise
// individually and the flat fault descriptors of earlier revisions could
// not express.
package fault

import (
	"errors"
	"fmt"
	"strings"

	"safetynet/perfbench/refsim/network"
	"safetynet/perfbench/refsim/sim"
	"safetynet/perfbench/refsim/topology"
)

// ErrUnsupported marks a fault event the target backend cannot express
// (e.g. a half-switch kill on a snooping bus, which has no switches).
// Arm wraps it, so callers test with errors.Is.
var ErrUnsupported = errors.New("fault event unsupported on this backend")

// DataNet is the unordered point-to-point data network of the snooping
// backend. Message-level fault events arm on it when Target.Data is set;
// snoop.System implements it.
type DataNet interface {
	// InjectDropOnce loses the first data message sent at or after at.
	InjectDropOnce(at sim.Time)
	// InjectDropEvery loses one data message per period, starting at start.
	InjectDropEvery(start, period sim.Time)
	// InjectCorruptOnce damages one data message sent at or after at; the
	// endpoint's error-detecting code discovers it on arrival.
	InjectCorruptOnce(at sim.Time)
	// InjectDuplicateOnce delivers one data message twice at or after at.
	InjectDuplicateOnce(at sim.Time)
}

// Target is the slice of a simulated system that fault events act on.
// Exactly one backend is addressed: the directory machine sets Net (the
// torus interconnect, for message-level faults) and Topo (for half-switch
// kills); the snooping system sets Data (its unordered data network).
// Arm-time validation rejects events the selected backend cannot express
// with ErrUnsupported.
type Target struct {
	Net  *network.Network
	Topo *topology.Torus
	Data DataNet
}

// validate reports a target with no interconnect at all.
func (t Target) validate() error {
	if t.Net == nil && t.Data == nil {
		return errors.New("target has no interconnect to arm faults on")
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
	if err := t.validate(); err != nil {
		return err
	}
	if e.At <= 0 {
		return fmt.Errorf("drop time must be positive, got %d", e.At)
	}
	if t.Data != nil {
		t.Data.InjectDropOnce(e.At)
		return nil
	}
	t.Net.InjectDropOnce(e.At)
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
	if t.Data != nil {
		t.Data.InjectDropEvery(e.Start, e.Period)
		return nil
	}
	t.Net.InjectDropEvery(e.Start, e.Period)
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
	if err := t.validate(); err != nil {
		return err
	}
	if e.At <= 0 {
		return fmt.Errorf("corruption time must be positive, got %d", e.At)
	}
	if t.Data != nil {
		t.Data.InjectCorruptOnce(e.At)
		return nil
	}
	t.Net.InjectCorruptOnce(e.At)
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
	if err := t.validate(); err != nil {
		return err
	}
	if e.At <= 0 {
		return fmt.Errorf("misroute time must be positive, got %d", e.At)
	}
	if t.Net == nil {
		// The snoop data network matches responses to transactions by
		// address, not by routed destination; a misdelivered message is
		// indistinguishable from a drop there, so the event is undefined.
		return fmt.Errorf("%w: misrouting needs the routed torus data network", ErrUnsupported)
	}
	t.Net.InjectMisrouteOnce(e.At)
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
	if err := t.validate(); err != nil {
		return err
	}
	if e.At <= 0 {
		return fmt.Errorf("duplication time must be positive, got %d", e.At)
	}
	if t.Data != nil {
		t.Data.InjectDuplicateOnce(e.At)
		return nil
	}
	t.Net.InjectDuplicateOnce(e.At)
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
	if t.Net == nil || t.Topo == nil {
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
	t.Net.KillSwitchAt(sw, e.At)
	return nil
}

func (e KillSwitch) String() string {
	axis := "EW"
	if e.Axis == topology.NS {
		axis = "NS"
	}
	return fmt.Sprintf("kill-%s(%d)@%d", axis, e.Node, e.At)
}
