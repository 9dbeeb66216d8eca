// Package cache provides the set-associative data arrays of the memory
// hierarchy (L1 and L2), the MOSI stable states, and the per-block
// checkpoint-number (CN) tags that SafetyNet adds to enable optimized
// logging (paper §3.3). Block data is a single uint64 token; the simulator
// verifies value coherence by token equality while charging bandwidth and
// storage for the configured block size.
package cache

import (
	"fmt"

	"safetynet/perfbench/refsim/msg"
)

// State is a MOSI stable coherence state. Transient states live in the
// protocol controllers (MSHRs), not in the array.
type State int

const (
	// Invalid: no valid copy.
	Invalid State = iota
	// Shared: read-only copy; some other agent (memory or a cache) owns
	// the block.
	Shared
	// Owned: dirty copy, responsible for supplying data, but other
	// shared copies may exist.
	Owned
	// Modified: dirty exclusive copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// IsOwner reports whether a cache in this state owns the block (must
// respond with data and write back on eviction).
func (s State) IsOwner() bool { return s == Owned || s == Modified }

// Line is one cache frame.
type Line struct {
	Addr  uint64
	State State
	// CN is the SafetyNet checkpoint number of the block: the checkpoint
	// the block's current contents belong to. Null means the contents
	// belong to the recovery point and all later checkpoints.
	CN   msg.CN
	Data uint64
	lru  uint64
	used bool
}

// Array is one set-associative cache level.
type Array struct {
	sets, ways int
	blockBits  uint
	lines      []Line // sets*ways, row-major by set
	tick       uint64
}

// NewArray builds an array with the given geometry. blockBytes must be a
// power of two.
func NewArray(sets, ways, blockBytes int) *Array {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %dx%d", sets, ways))
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: block size %d not a power of two", blockBytes))
	}
	bits := uint(0)
	for 1<<bits != blockBytes {
		bits++
	}
	return &Array{sets: sets, ways: ways, blockBits: bits, lines: make([]Line, sets*ways)}
}

// Sets and Ways return the geometry.
func (a *Array) Sets() int { return a.sets }
func (a *Array) Ways() int { return a.ways }

func (a *Array) setOf(addr uint64) int {
	return int((addr >> a.blockBits) % uint64(a.sets))
}

func (a *Array) set(addr uint64) []Line {
	s := a.setOf(addr)
	return a.lines[s*a.ways : (s+1)*a.ways]
}

// Lookup returns the valid line holding addr, or nil.
func (a *Array) Lookup(addr uint64) *Line {
	set := a.set(addr)
	for i := range set {
		if set[i].used && set[i].State != Invalid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch refreshes the replacement age of a line (call on every access).
func (a *Array) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid frame if one exists, otherwise the least recently used line
// for which evictable returns true. A nil evictable accepts every line.
// It returns nil when no frame qualifies.
func (a *Array) Victim(addr uint64, evictable func(*Line) bool) *Line {
	set := a.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.used || l.State == Invalid {
			return l
		}
		if evictable != nil && !evictable(l) {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install claims frame l for addr with the given contents, returning the
// previous occupant (meaningful only if it was valid). The caller decides
// what to do with a dirty victim before calling Install.
func (a *Array) Install(l *Line, addr uint64, st State, cn msg.CN, data uint64) Line {
	old := *l
	a.tick++
	*l = Line{Addr: addr, State: st, CN: cn, Data: data, lru: a.tick, used: true}
	return old
}

// Invalidate drops addr if present.
func (a *Array) Invalidate(addr uint64) {
	if l := a.Lookup(addr); l != nil {
		l.State = Invalid
	}
}

// InvalidateAll flash-clears the array (used when recovering the L1, whose
// contents are a pure subset of the L2).
func (a *Array) InvalidateAll() {
	for i := range a.lines {
		a.lines[i].State = Invalid
	}
}

// ForEachValid visits every valid line. The callback may mutate the line
// (including invalidating it) but must not install new lines.
func (a *Array) ForEachValid(f func(*Line)) {
	for i := range a.lines {
		if a.lines[i].used && a.lines[i].State != Invalid {
			f(&a.lines[i])
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].used && a.lines[i].State != Invalid {
			n++
		}
	}
	return n
}

// Bandwidth tallies cache-port occupancy in cycles by traffic class,
// reproducing the breakdown of the paper's Figure 7.
type Bandwidth struct {
	// HitCycles is port occupancy from load/store hits.
	HitCycles uint64
	// FillCycles is occupancy from installing fetched blocks.
	FillCycles uint64
	// CoherenceCycles is occupancy from reading blocks to answer
	// forwarded coherence requests and writebacks.
	CoherenceCycles uint64
	// LoggingCycles is occupancy from reading old block copies for CLB
	// logging on store overwrites — SafetyNet's only added cache
	// bandwidth (transfers must read the block anyway; paper §4.3).
	LoggingCycles uint64
}

// Total returns the summed occupancy.
func (b Bandwidth) Total() uint64 {
	return b.HitCycles + b.FillCycles + b.CoherenceCycles + b.LoggingCycles
}
