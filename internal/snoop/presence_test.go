package snoop

import (
	"encoding/binary"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// presenceCycles is the length of one FuzzSnoopPresence run.
const presenceCycles = 40_000

// presenceGeometry encodes a FuzzSnoopPresence geometry: 2–16 nodes in
// the low nibble, then the L2 set and way choices.
func presenceGeometry(nodes, setIdx, wayIdx int) uint16 {
	return uint16(nodes-2) | uint16(setIdx)<<4 | uint16(wayIdx)<<6
}

// FuzzSnoopPresence checks the presence filter's invariant after every
// cycle of a short stress run: every node holding a block (a valid L2
// line, an ordered transaction or a parked writeback) has its bit in the
// filter. geometry picks 2–16 nodes, 1, 2, 4 or 64 L2 sets and 1, 2 or 4
// ways; tiny caches make evictions, parked writebacks and re-fetches
// constant. faults decodes, in its first two bytes, the cycle of one
// forced Recover, then in 3-byte groups up to eight dropped, corrupted
// or duplicated data messages, armed as one fault plan (a zero time maps
// to 1, because Arm rejects zero); each drop and corruption ends in a
// recovery, which keeps the filter and sets the bit of each block a
// node's CLB unroll installs into a frame. State changes only when events
// fire, and slots are at least one cycle apart, so checking after every
// cycle that fired an event checks after every slot and every data
// arrival.
func FuzzSnoopPresence(f *testing.F) {
	// 1 set, 1 way; the small system's 8 nodes, 64 sets and 4 ways; 16
	// nodes with 4 sets of 2 ways.
	f.Add(uint64(1), presenceGeometry(4, 0, 0), []byte{0x40, 0x1f, 0, 0x10, 0x27, 1, 0x50, 0x46, 2, 0x30, 0x75})
	f.Add(uint64(2), presenceGeometry(8, 3, 2), []byte{0x98, 0x3a, 0, 0x88, 0x13, 2, 0x20, 0x4e, 1, 0x60, 0x6d})
	f.Add(uint64(3), presenceGeometry(16, 2, 1), []byte{0x10, 0x27, 2, 0xa0, 0x0f, 0, 0x70, 0x17, 1, 0x58, 0x1b})
	f.Fuzz(func(t *testing.T, seed uint64, geometry uint16, faults []byte) {
		p := testParams(seed)
		p.NumNodes = 2 + int(geometry&0xf)%15
		p.L2Ways = []int{1, 2, 4}[int(geometry>>6)%3]
		p.L2Bytes = []int{1, 2, 4, 64}[geometry>>4&3] * p.L2Ways * p.BlockBytes
		// Detect lost data within the run.
		p.RequestTimeoutCycles, p.ValidationWatchdogCycles = 4_000, 40_000
		s := New(p, workload.Stress())

		recoverAt := sim.Time(presenceCycles)
		if len(faults) >= 2 {
			recoverAt = sim.Time(binary.LittleEndian.Uint16(faults)) % presenceCycles
			faults = faults[2:]
		}
		var plan []fault.Event
		for i := 0; i+3 <= len(faults) && i < 8*3; i += 3 {
			at := max(sim.Time(binary.LittleEndian.Uint16(faults[i+1:]))%presenceCycles, 1)
			plan = append(plan, []fault.Event{fault.DropOnce{At: at},
				fault.CorruptOnce{At: at}, fault.DuplicateOnce{At: at}}[faults[i]%3])
		}
		arm(t, s, plan...)

		s.Start()
		fired := s.eng.Executed()
		for s.Now() < presenceCycles {
			if s.Now() == recoverAt {
				s.Recover()
			}
			s.Run(s.Now() + 1)
			if s.eng.Executed() == fired {
				continue // no event, no state change
			}
			fired = s.eng.Executed()
			if errs := s.presenceErrors(); len(errs) != 0 {
				t.Fatalf("cycle %d (%d nodes, %dx%d L2, %d recoveries): %v",
					s.Now(), p.NumNodes, p.L2Sets(), p.L2Ways, s.Recoveries, errs[:min(len(errs), 5)])
			}
		}
		if s.bus.Broadcasts == 0 {
			t.Fatal("no bus traffic")
		}
	})
}

// TestPresenceFilterTable2 checks the presence filter's invariant every
// 1,000 cycles of a run at the paper's Table 2 configuration, whose
// 4 MB L2s hold most of the working set.
func TestPresenceFilterTable2(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	s := New(p, workload.OLTP())
	s.Start()
	for s.Now() < 400_000 {
		s.Run(s.Now() + 1_000)
		if errs := s.presenceErrors(); len(errs) != 0 {
			t.Fatalf("cycle %d: %v", s.Now(), errs[:min(len(errs), 5)])
		}
	}
	if s.bus.Broadcasts == 0 {
		t.Fatal("no bus traffic")
	}
}
