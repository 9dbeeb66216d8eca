package cache

import (
	"testing"

	"safetynet/internal/msg"
)

// journalOps runs one FuzzCNJournal input. The first byte picks the
// geometry: 1-4 sets of 1-4 ways. The rest are the operations (see
// applyOps), run on a journaled array and on its twin. Then it releases
// the array, which must leave every frame zero, must do nothing a second
// time, and must leave a Lookup to panic. Last it replays the operations
// on the transposed geometry, which has the same frame count, so the
// pool may hand it the released frames: it must end frame for frame
// where an array whose frames never came from the pool ends. Under -race
// the pool drops some of what it is given, so the test checks results,
// never that a slice was reused.
func journalOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	sets, ways := 1+int(data[0]&3), 1+int(data[0]>>2&3)
	a, twin := NewArray(sets, ways, 64), NewArray(sets, ways, 64)
	applyOps(t, a, twin, data[1:])
	releaseZero(t, a)
	a.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Lookup on a released array did not panic")
			}
		}()
		a.Lookup(0)
	}()

	b := NewArray(ways, sets, 64)
	// A second Release that gave the pool the frames again would let
	// this array share them with b.
	other := NewArray(sets, ways, 64)
	if &other.lines[0] == &b.lines[0] {
		t.Fatal("two live arrays share one frame slice")
	}
	fresh := unpooled(ways, sets)
	applyOps(t, b, fresh, data[1:])
	for f := range b.lines {
		if b.lines[f] != fresh.lines[f] {
			t.Fatalf("replay on %dx%d: frame %d = %+v, an unpooled array holds %+v",
				ways, sets, f, b.lines[f], fresh.lines[f])
		}
	}
	for _, arr := range []*Array{twin, b, fresh, other} {
		releaseZero(t, arr)
	}
}

// unpooled builds an array whose frames never came from the pool.
func unpooled(sets, ways int) *Array {
	a := NewArray(sets, ways, 64)
	a.lines = make([]Line, len(a.lines))
	return a
}

// releaseZero releases a and checks that every frame it held is zero.
// No test in this package runs in parallel, so no other array takes the
// frames from the pool before the check.
func releaseZero(t *testing.T, a *Array) {
	t.Helper()
	frames := a.lines
	a.Release()
	for f := range frames {
		if frames[f] != (Line{}) {
			t.Fatalf("Release left frame %d = %+v", f, frames[f])
		}
	}
	if a.lines != nil {
		t.Fatal("a released array kept its frames")
	}
}

// applyOps applies the operations in ops to a journaled array and to its
// twin alike. Each pair of bytes is one operation: the op byte's low
// three bits choose it and its high bits one of 16 block addresses; the
// argument byte supplies a CN, a state or a step.
//
//   - install: claim addr's victim frame (or re-claim its own frame)
//     with a state and a CN;
//   - set: change the CN of addr's line in place, as a store, an upgrade
//     or a restore does;
//   - invalidate: drop addr;
//   - touch: refresh addr's replacement age;
//   - validate: raise the floor (the recovery point) by 0-2 and prune;
//   - recover: recover to an rpcn 0-2 above the floor. The array
//     discards through its journal, the twin by scanning every frame as
//     recovery did before the journal, and every frame must then match.
//     The recovery point becomes rpcn.
//
// CNs range from two below the floor to three above it, Null included
// while the floor is low, so lines hold CNs on both sides of every
// recovery point.
func applyOps(t *testing.T, a, twin *Array, ops []byte) {
	t.Helper()
	floor := msg.CN(1)
	cnOf := func(b byte) msg.CN { return msg.CN(max(int(floor)+int(b%6)-2, 0)) }
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		addr := uint64(op>>3&15) * 64
		switch op & 7 {
		case 0, 1:
			st := State(1 + arg>>6%3) // Shared, Owned or Modified
			for _, arr := range []*Array{a, twin} {
				l := arr.Lookup(addr)
				if l == nil {
					l = arr.Victim(addr, nil)
				}
				arr.Install(l, addr, st, cnOf(arg), uint64(arg))
			}
		case 2, 3:
			for _, arr := range []*Array{a, twin} {
				if l := arr.Lookup(addr); l != nil {
					arr.SetCN(l, cnOf(arg))
				}
			}
		case 4:
			a.Invalidate(addr)
			twin.Invalidate(addr)
		case 5:
			for _, arr := range []*Array{a, twin} {
				if l := arr.Lookup(addr); l != nil {
					arr.Touch(l)
				}
			}
		case 6:
			floor += msg.CN(arg % 3)
			a.Validate(floor)
		case 7:
			rpcn := floor + msg.CN(arg%3)
			a.DiscardAbove(rpcn)
			twin.ForEachValid(func(l *Line) {
				if l.CN() > rpcn {
					l.State = Invalid
				}
			})
			for f := range a.lines {
				if a.lines[f] != twin.lines[f] {
					t.Fatalf("op %d: recovery to %d left frame %d = %+v, the scan left %+v",
						i/2, rpcn, f, a.lines[f], twin.lines[f])
				}
			}
			floor = rpcn
		}
	}
}

// FuzzCNJournal checks that a recovery through the CN journal
// invalidates exactly the frames a scan of every frame invalidates (see
// applyOps for the operations), and that Release hands on frames a later
// array cannot tell from new ones (see journalOps). The hand-made seeds
// each need the journal to record, keep or re-read one CN write:
//   - a CN given in place and never validated;
//   - a CN one above the floor surviving a validation at the floor;
//   - a frame invalidated by a recovery and refilled with the same
//     address and CN;
//   - a line whose CN rose above the recovery point after an entry at
//     the recovery point was journaled for it;
//   - a line whose CN fell to the recovery point after an entry above
//     it was journaled.
//
// The pseudo-random seeds mix every operation over every geometry.
func FuzzCNJournal(f *testing.F) {
	const (
		install  = 0
		set      = 2
		validate = 6
		recover  = 7
		a0       = 0 << 3 // address 0
	)
	// CN arguments: cnOf(b) is floor - 2 + b%6.
	const atFloor, aboveFloor1, aboveFloor2 = 2, 3, 4
	f.Add([]byte{0, install | a0, 0, set | a0, aboveFloor2, recover | a0, 0})
	f.Add([]byte{0, install | a0, aboveFloor1, validate | a0, 0, recover | a0, 0})
	f.Add([]byte{0, install | a0, aboveFloor2, recover | a0, 0, install | a0, aboveFloor2, recover | a0, 0})
	f.Add([]byte{0, install | a0, atFloor, set | a0, aboveFloor2, recover | a0, 0})
	f.Add([]byte{0, install | a0, aboveFloor2, set | a0, atFloor, recover | a0, 0})
	for seed := uint64(1); seed <= 16; seed++ {
		b := make([]byte, 1+32*seed)
		x := seed * 0x9e3779b97f4a7c15
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
		f.Add(b)
	}
	f.Fuzz(journalOps)
}
