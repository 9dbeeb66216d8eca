package fault

import (
	"math"

	"safetynet/internal/sim"
)

// kind indexes the injector's per-kind counts; kindNames maps it to the
// stable tag reported for each firing.
type kind uint8

const (
	dropOnce kind = iota
	dropEvery
	corruptOnce
	misrouteOnce
	duplicateOnce
	killSwitch
	numKinds
)

var kindNames = [numKinds]string{KindDropOnce, KindDropEvery, KindCorruptOnce,
	KindMisrouteOnce, KindDuplicateOnce, KindKillSwitch}

// Effect is the set of faults the injector fired on one send, for the
// interconnect to apply to the message.
type Effect uint8

const (
	// Drop loses the message; nothing else fires on it.
	Drop Effect = 1 << iota
	// Corrupt damages the message's data. It is still delivered, and the
	// endpoint's error-detecting code discovers the damage.
	Corrupt
	// Misroute delivers the message to the wrong node (torus only).
	Misroute
	// Duplicate delivers a second copy of the message, as the other
	// effects left it.
	Duplicate
)

// effectOf is the effect each message-level kind applies when it fires.
var effectOf = [numKinds]Effect{Drop, Drop, Corrupt, Misroute, Duplicate, 0}

// never is the due time of a one-shot that has fired.
const never = sim.Time(math.MaxUint64)

// armed is one message-level event. It is due at the first eligible send
// at or after at; firing moves a one-shot's at to never and a drop-every's
// to the firing send's time plus period.
type armed struct {
	kind       kind
	at, period sim.Time
}

// Injector fires the message-level events of the plans armed on one
// interconnect. The torus network asks it once per coherence message
// sent, the snooping bus once per data message, and both apply the Effect
// it returns. The zero value has nothing armed.
type Injector struct {
	// OnFire, when set, receives the cycle and Kind* tag of every firing,
	// switch kills included.
	OnFire func(cycle uint64, kind string)

	events []armed
	// next is no later than the earliest due time of any armed event, so a
	// send before it fires nothing.
	next   sim.Time
	counts [numKinds]uint64
}

// add arms one message-level event, due at cycle at.
func (in *Injector) add(k kind, at, period sim.Time) {
	in.events = append(in.events, armed{kind: k, at: at, period: period})
	in.next = min(in.next, at)
}

// Disarm stops every armed message-level event from firing again.
func (in *Injector) Disarm() { in.events, in.next = nil, never }

// Fired returns how many times events of the given Kind* tag fired.
func (in *Injector) Fired(kind string) uint64 {
	for k, name := range kindNames {
		if name == kind {
			return in.counts[k]
		}
	}
	return 0
}

// Decide applies the firing rule to one eligible send at cycle now and
// returns the effects fired. The first due drop, in arm order, loses the
// message and ends the send. Otherwise every due corrupt, misroute and
// duplicate event fires, in arm order. data reports whether the message
// carries data; a send without it can take only a duplicate.
//
//snvet:alloc-free
func (in *Injector) Decide(now sim.Time, data bool) Effect {
	if now < in.next {
		return 0
	}
	return in.decide(now, data)
}

//snvet:alloc-free
func (in *Injector) decide(now sim.Time, data bool) Effect {
	var eff Effect
	if data {
		for i := range in.events {
			if e := &in.events[i]; effectOf[e.kind] == Drop && now >= e.at {
				eff = in.fire(e, now)
				break
			}
		}
	}
	if eff == 0 {
		for i := range in.events {
			if e := &in.events[i]; effectOf[e.kind] != Drop && now >= e.at && (data || e.kind == duplicateOnce) {
				eff |= in.fire(e, now)
			}
		}
	}
	in.next = never
	for _, e := range in.events {
		in.next = min(in.next, e.at)
	}
	return eff
}

// fire consumes one due event and reports it.
//
//snvet:alloc-free
func (in *Injector) fire(e *armed, now sim.Time) Effect {
	e.at = never
	if e.kind == dropEvery {
		e.at = now + e.period
	}
	in.note(now, e.kind)
	return effectOf[e.kind]
}

// note counts one firing and reports it through OnFire.
//
//snvet:alloc-free
func (in *Injector) note(now sim.Time, k kind) {
	in.counts[k]++
	if in.OnFire != nil {
		in.OnFire(uint64(now), kindNames[k])
	}
}
