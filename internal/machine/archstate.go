package machine

import (
	"fmt"
	"sort"

	"safetynet/internal/cache"
	"safetynet/internal/sim"
)

// PauseAll stops every processor from issuing new work (in-flight
// operations complete).
func (m *Machine) PauseAll() {
	for _, n := range m.Nodes {
		n.Proc.Pause()
	}
}

// ResumeAll restarts every processor (and ends a sticky quiesce).
func (m *Machine) ResumeAll() {
	m.quiescing = false
	for _, n := range m.Nodes {
		n.Proc.Resume()
	}
}

// Quiesce pauses the processors and runs until every transaction drains
// (no MSHRs, no writebacks, no busy directory entries, no recovery in
// progress), or the budget expires. It reports whether the system
// quiesced. The paused state is sticky — a recovery completing or
// validation back-pressure lifting mid-quiesce does not restart the
// processors — until Resume.
func (m *Machine) Quiesce(budget sim.Time) bool {
	m.quiescing = true
	m.PauseAll()
	deadline := m.Eng.Now() + budget
	for m.Eng.Now() < deadline {
		if m.drained() {
			return true
		}
		m.Eng.Run(m.Eng.Now() + 1000)
	}
	return m.drained()
}

func (m *Machine) drained() bool {
	if m.recovering {
		return false
	}
	for _, n := range m.Nodes {
		if n.CC.OutstandingTxns() != 0 || n.Dir.BusyEntries() != 0 {
			return false
		}
	}
	return true
}

// ArchValues returns the architectural memory image: for every block with
// a directory entry, the value an (idealized) load would observe — the
// owner's copy. Call only at quiescence.
func (m *Machine) ArchValues() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, n := range m.Nodes {
		n.Dir.ForEachEntry(func(addr uint64, owner int, sharers uint32, busy bool) {
			if owner == -1 {
				out[addr] = n.Dir.MemData(addr)
				return
			}
			v, ok := m.Nodes[owner].CC.OwnedValue(addr)
			if !ok {
				panic(fmt.Sprintf("machine: directory says node %d owns %#x but it has no owned copy", owner, addr))
			}
			out[addr] = v
		})
	}
	return out
}

// CheckCoherence verifies the MOSI invariants at quiescence:
//  1. every directory entry is idle;
//  2. a cache-owned block has exactly the directory's owner holding it in
//     an owner state (everyone else at most Shared);
//  3. every valid cached copy of a block equals the owner's value;
//  4. every valid cached copy is covered by the directory (owner or
//     sharer bit — sharer lists may be stale supersets, never subsets).
//
// It returns the list of violations (empty means coherent).
func (m *Machine) CheckCoherence() []string {
	var errs []string
	addf := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }

	// Gather directory views.
	type view struct {
		owner   int
		sharers uint32
	}
	dir := make(map[uint64]view)
	for _, n := range m.Nodes {
		n.Dir.ForEachEntry(func(addr uint64, owner int, sharers uint32, busy bool) {
			if busy {
				addf("dir %d: entry %#x busy at quiescence", n.ID, addr)
			}
			dir[addr] = view{owner, sharers}
		})
	}

	for addr, v := range dir {
		home := m.Nodes[m.home(addr)]
		var ownerVal uint64
		if v.owner == -1 {
			ownerVal = home.Dir.MemData(addr)
		} else {
			val, ok := m.Nodes[v.owner].CC.OwnedValue(addr)
			if !ok {
				addf("block %#x: dir owner %d holds no owned copy", addr, v.owner)
				continue
			}
			ownerVal = val
		}
		for _, n := range m.Nodes {
			st, val, ok := n.CC.LineState(addr)
			if !ok {
				continue
			}
			if st.IsOwner() {
				if v.owner != n.ID {
					addf("block %#x: node %d in %v but dir owner is %d", addr, n.ID, st, v.owner)
				}
				continue
			}
			// Shared copy.
			if val != ownerVal {
				addf("block %#x: node %d shared copy %#x != owner value %#x", addr, n.ID, val, ownerVal)
			}
			if v.owner != n.ID && v.sharers&(1<<uint(n.ID)) == 0 {
				addf("block %#x: node %d holds S copy but is not in sharer list", addr, n.ID)
			}
		}
	}

	// Any cached block must have a directory entry.
	for _, n := range m.Nodes {
		n.CC.L2().ForEachValid(func(l *cache.Line) {
			if _, ok := dir[l.Addr]; !ok {
				addf("block %#x: cached at node %d with no directory entry", l.Addr, n.ID)
			}
		})
	}

	sort.Strings(errs)
	return errs
}
