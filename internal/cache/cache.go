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
// footprint saves. Frames therefore stay eager, and are recycled:
// Release zeroes the sets the array's run wrote and hands the slice to
// the next NewArray of the same frame count, so a new array costs what
// the last run wrote, not its size (a campaign run writes a few percent
// of its L2 sets). Install is the only write that takes a frame from
// zero to non-zero: every other write (data, state, SetCN, Touch, the
// invalidations) goes to a line Lookup returned, which Install filled.
// So a per-set bitmap that Install marks names every set Release must
// zero. The released slices wait in a sync.Pool per frame count, which
// lets the runtime reclaim them after two collections in which no array
// took them, so a process that stops simulating does not keep them.
//
// A line's replacement age is a reading of the array's clock, which
// Install and Touch advance by one. Stamp advances the clock exactly as
// Touch does and returns the reading without writing any line, and
// TouchAt later raises a line's age to such a reading. A controller
// that defers a touch this way (the directory backend's L1 keeps the L2
// age of its hits) leaves the clock's sequence unchanged, so once every
// deferred reading is raised into its line, each line's age is the one
// Touch would have given it, and Victim chooses the same line.
//
// A line's CN is written only here, by Install and SetCN, and each write
// that gives a valid line a non-null CN appends (address, CN) to the
// array's CN journal. Validation prunes the entries at or below the new
// recovery point (Validate); a recovery, after the CLB unroll, visits the
// entries above it and invalidates each line whose CN is still above it,
// then empties the journal (DiscardAbove). That is exactly the set of
// lines a scan of every frame would invalidate: the recovery point never
// decreases, so a line whose CN is above rpcn took that CN while the
// recovery point was at most rpcn, and its entry survived every prune
// since. A recovery therefore costs the lines written since the recovery
// point, not the size of the array.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

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
	// cn is the SafetyNet checkpoint number of the block (see CN). Only
	// the Array writes it, so that every write is journaled.
	cn   msg.CN
	Data uint64
	lru  uint64
}

// Age returns the line's replacement age: the clock reading of its last
// Install, Touch or TouchAt.
func (l *Line) Age() uint64 { return l.lru }

// CN returns the SafetyNet checkpoint number of the block: the
// checkpoint the block's current contents belong to. Null means the
// contents belong to the recovery point and all later checkpoints.
func (l *Line) CN() msg.CN { return l.cn }

// cnNote is one CN-journal entry: the valid line holding addr took
// checkpoint number cn.
type cnNote struct {
	addr uint64
	cn   msg.CN
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
	// journal lists, oldest first, each non-null CN a valid line took
	// since the last recovery, less those Validate pruned.
	journal []cnNote
	// written marks, one bit per set, each set Install wrote: the sets
	// Release must zero.
	written []uint64
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
	a := &Array{
		ways: ways, sets: uint64(sets), blockBits: uint(bits.TrailingZeros(uint(blockBytes))),
		lines:   newFrames(sets * ways),
		written: make([]uint64, (sets+63)/64),
	}
	if sets&(sets-1) == 0 {
		a.pow2, a.setMask = true, uint64(sets-1)
	}
	return a
}

// framePools holds, per frame count, the zeroed frame slices released
// arrays handed back, each as a *[]Line.
var framePools = struct {
	sync.Mutex
	byCount map[int]*sync.Pool
}{byCount: map[int]*sync.Pool{}}

// framePool returns the pool of released slices of n frames.
func framePool(n int) *sync.Pool {
	framePools.Lock()
	defer framePools.Unlock()
	p := framePools.byCount[n]
	if p == nil {
		p = new(sync.Pool)
		framePools.byCount[n] = p
	}
	return p
}

// newFrames returns n zero frames: a released slice when the pool holds
// one, otherwise a new one.
func newFrames(n int) []Line {
	if f, ok := framePool(n).Get().(*[]Line); ok {
		return *f
	}
	return make([]Line, n)
}

// Release zeroes the sets Install wrote and hands the frames to the next
// NewArray of the same frame count. Nothing may use the array
// afterwards: its frames are gone, so a Lookup panics instead of reading
// another run's lines. A second Release does nothing, so one slice never
// reaches two arrays.
func (a *Array) Release() {
	if a.lines == nil {
		return
	}
	for w, marks := range a.written {
		for marks != 0 {
			s := w*64 + bits.TrailingZeros64(marks)
			marks &= marks - 1
			clear(a.lines[s*a.ways : (s+1)*a.ways])
		}
	}
	f := a.lines
	a.lines, a.written, a.journal = nil, nil, nil
	framePool(len(f)).Put(&f)
}

// Sets and Ways return the geometry.
func (a *Array) Sets() int { return int(a.sets) }
func (a *Array) Ways() int { return a.ways }

// setIndex returns the set addr maps to: block number modulo the set
// count.
func (a *Array) setIndex(addr uint64) uint64 {
	b := addr >> a.blockBits
	if a.pow2 {
		return b & a.setMask
	}
	return b % a.sets
}

// set returns the frames of the set addr maps to.
func (a *Array) set(addr uint64) []Line {
	s := int(a.setIndex(addr)) * a.ways
	return a.lines[s : s+a.ways]
}

// Frames returns the frames of the set addr maps to, in the order Victim
// scans them. A caller may change only the valid ones, as it may change
// a line Lookup returns.
func (a *Array) Frames(addr uint64) []Line { return a.set(addr) }

// Lookup returns the valid line holding addr, or nil.
//
//snvet:alloc-free
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
//
//snvet:alloc-free
func (a *Array) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

// Stamp advances the replacement clock as Touch does and returns the age
// Touch would have given the line, writing no line: the caller keeps the
// reading and hands it to TouchAt before any Victim call that must see
// it.
//
//snvet:alloc-free
func (a *Array) Stamp() uint64 {
	a.tick++
	return a.tick
}

// TouchAt raises l's replacement age to age, an earlier reading of the
// array's clock (one Stamp returned, or a line's Age), unless l's own
// age is later.
//
//snvet:alloc-free
func (a *Array) TouchAt(l *Line, age uint64) {
	l.lru = max(l.lru, age)
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid frame if one exists, otherwise the least recently used line
// for which evictable returns true. A nil evictable accepts every line.
// It returns nil when no frame qualifies.
//
//snvet:alloc-free
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

// Install claims frame l for addr with the given contents. l must be a
// frame of addr's set, as Lookup and Victim return, since Install marks
// that set for Release. The caller decides what to do with a dirty
// victim before calling Install.
//
//snvet:alloc-free
func (a *Array) Install(l *Line, addr uint64, st State, cn msg.CN, data uint64) {
	a.tick++
	*l = Line{Addr: addr, State: st, cn: cn, Data: data, lru: a.tick}
	s := a.setIndex(addr)
	a.written[s/64] |= 1 << (s % 64)
	if st != Invalid {
		a.note(addr, cn)
	}
}

// SetCN changes the CN of the valid line l in place: a store, an
// upgrade, or a recovery's restore of a resident block.
func (a *Array) SetCN(l *Line, cn msg.CN) {
	if cn != l.cn {
		a.note(l.Addr, cn)
		l.cn = cn
	}
}

// note journals that the line holding addr took cn.
//
//snvet:alloc-free
func (a *Array) note(addr uint64, cn msg.CN) {
	if cn != msg.Null {
		a.journal = append(a.journal, cnNote{addr: addr, cn: cn}) //snvet:alloc-ok amortized: the journal grows to its peak over the unvalidated intervals, then pruning and recovery keep its capacity
	}
}

// Validate drops the journal entries at or below the new recovery point
// rpcn: no recovery will discard those lines.
func (a *Array) Validate(rpcn msg.CN) {
	kept := a.journal[:0]
	for _, e := range a.journal {
		if e.cn > rpcn {
			kept = append(kept, e)
		}
	}
	a.journal = kept
}

// DiscardAbove invalidates every line whose CN is above rpcn — the lines
// filled or written in unvalidated intervals that the CLB unroll did not
// restore — and empties the journal. A recovery calls it after the
// unroll, whose restores are journaled like any other CN write.
func (a *Array) DiscardAbove(rpcn msg.CN) {
	for _, e := range a.journal {
		if e.cn <= rpcn {
			continue
		}
		if l := a.Lookup(e.addr); l != nil && l.cn > rpcn {
			l.State = Invalid
		}
	}
	a.journal = a.journal[:0]
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
