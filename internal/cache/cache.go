// Package cache provides the set-associative data arrays of the memory
// hierarchy (L1 and L2), the MOSI stable states, and the per-block
// checkpoint-number (CN) tags that SafetyNet adds to enable optimized
// logging (paper §3.3). Block data is a single uint64 token; the simulator
// verifies value coherence by token equality while charging bandwidth and
// storage for the configured block size.
//
// An array is one flat slice of 32-byte frames, allocated up front and
// indexed directly by set, so Lookup is a handful of loads and compares
// that the compiler inlines into the controllers. Most frames never hold
// a line during a run, and lazily allocated set storage was tried to
// avoid paying for them: it made the Table 2 OLTP run 4-7% slower
// (speedup_vs_ref 0.93-0.96 on perfbench's oltp-steady), because the
// indirection it adds to every access costs more than the smaller
// footprint saves. Frames therefore stay eager.
package cache

import (
	"fmt"

	"safetynet/internal/msg"
)

// State is a MOSI stable coherence state. Transient states live in the
// protocol controllers (MSHRs), not in the array.
type State uint8

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

// Line is one cache frame: 32 bytes, with State and CN packed into one
// word. A frame that never held a line is the zero Line, which is
// Invalid, so validity is State alone.
type Line struct {
	Addr  uint64
	State State
	// CN is the SafetyNet checkpoint number of the block: the checkpoint
	// the block's current contents belong to. Null means the contents
	// belong to the recovery point and all later checkpoints.
	CN   msg.CN
	Data uint64
	lru  uint64
}

// Array is one set-associative cache level.
type Array struct {
	ways      int
	sets      uint64
	blockBits uint
	// pow2 marks a power-of-two set count, whose modulo is the mask
	// setMask.
	pow2    bool
	setMask uint64
	lines   []Line // sets*ways, row-major by set
	tick    uint64
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
	a := &Array{ways: ways, sets: uint64(sets), blockBits: bits, lines: make([]Line, sets*ways)}
	if sets&(sets-1) == 0 {
		a.pow2, a.setMask = true, uint64(sets-1)
	}
	return a
}

// Sets and Ways return the geometry.
func (a *Array) Sets() int { return int(a.sets) }
func (a *Array) Ways() int { return a.ways }

// set returns the frames of the set addr maps to: block number modulo
// the set count.
func (a *Array) set(addr uint64) []Line {
	b := addr >> a.blockBits
	if a.pow2 {
		b &= a.setMask
	} else {
		b %= a.sets
	}
	s := int(b) * a.ways
	return a.lines[s : s+a.ways]
}

// Lookup returns the valid line holding addr, or nil.
func (a *Array) Lookup(addr uint64) *Line {
	set := a.set(addr)
	for i := range set {
		if set[i].Addr == addr && set[i].State != Invalid {
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
		if l.State == Invalid {
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
	*l = Line{Addr: addr, State: st, CN: cn, Data: data, lru: a.tick}
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
		if a.lines[i].State != Invalid {
			f(&a.lines[i])
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].State != Invalid {
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
