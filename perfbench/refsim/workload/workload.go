// Package workload provides deterministic synthetic memory-reference
// generators standing in for the paper's full-system commercial workloads
// (Table 3: DB2 OLTP, SPECjbb, Apache+SURGE, Slashcode, barnes-hut). The
// generators reproduce the properties the evaluation depends on — store
// rate, sharing degree, migratory (read-modify-write) sharing, and the
// spatial/temporal locality that makes only a small set of distinct blocks
// dirty per checkpoint interval (Figure 6) — without needing Simics or the
// commercial binaries.
//
// Generator state is architectural state: SafetyNet checkpoints it with
// the registers and rolls it back on recovery, which is what makes
// re-execution after a recovery deterministic.
package workload

import (
	"fmt"

	"safetynet/perfbench/refsim/sim"
)

// Op is one unit of work: a burst of non-memory instructions followed by
// one memory reference (or an I/O output when IsIO is set).
type Op struct {
	// NonMemInstrs is the number of non-memory instructions retired
	// before the reference.
	NonMemInstrs int
	// IsStore selects a store; otherwise a load.
	IsStore bool
	// Addr is the block-aligned target address.
	Addr uint64
	// StoreVal is the value token written by a store: unique per
	// (node, sequence) so tests can verify exact rollback/re-execution.
	StoreVal uint64
	// IsIO marks an output operation to the outside world instead of a
	// memory reference (exercises SafetyNet's output commit).
	IsIO bool
	// IOVal is the output token.
	IOVal uint64
}

// Generator produces a deterministic operation stream whose state can be
// checkpointed and restored.
type Generator interface {
	Next() Op
	Snapshot() any
	Restore(any)
}

// Profile parameterises a synthetic workload.
type Profile struct {
	Name string

	// MemRefsPer1000 is memory references per 1000 instructions.
	MemRefsPer1000 int
	// StoreFrac is the fraction of private references that are stores.
	StoreFrac float64
	// SharedFrac is the fraction of references to globally shared data.
	SharedFrac float64
	// SharedStoreFrac is the fraction of plain (non-migratory) shared
	// references that are stores. Commercial workloads keep this low:
	// shared data is mostly read-shared, and writes to shared state
	// arrive through migratory read-modify-write bursts instead.
	SharedStoreFrac float64

	// References exhibit three-tier locality: a hot subset absorbing
	// HotFrac of traffic (reused within thousands of cycles), a warm
	// subset absorbing WarmFrac (reused across checkpoint intervals —
	// these dominate the CLB logging falloff of Figure 6), and a cold
	// uniform remainder over the full working set.
	HotFrac, WarmFrac float64

	// PrivateBlocks is the per-processor private working set in blocks,
	// with its hot and warm subset sizes.
	PrivateBlocks, PrivateHotBlocks, PrivateWarmBlocks int

	// SharedBlocks is the global shared region in blocks, with its own
	// hot and warm subsets.
	SharedBlocks, SharedHotBlocks, SharedWarmBlocks int

	// MigratoryFrac is the probability that a shared access starts a
	// migratory read-modify-write burst (lock-like: loads then a store
	// to the same block), the pattern that causes 3-hop ownership
	// migration. Bursts target a dedicated contended region of
	// MigratoryBlocks blocks (locks, database rows), keeping the plain
	// shared tiers read-mostly as in real commercial workloads.
	MigratoryFrac float64
	// MigratoryLen is the burst length.
	MigratoryLen int
	// MigratoryBlocks is the size of the contended migratory region.
	MigratoryBlocks int

	// HotRotatePeriod shifts the hot subsets every N operations,
	// modelling phase changes.
	HotRotatePeriod uint64

	// IOPer100k is output operations per 100k instructions (0 for none).
	IOPer100k float64
}

// Validate reports the first profile error, or nil.
func (p Profile) Validate() error {
	switch {
	case p.MemRefsPer1000 <= 0 || p.MemRefsPer1000 > 1000:
		return fmt.Errorf("workload %s: MemRefsPer1000 = %d out of (0,1000]", p.Name, p.MemRefsPer1000)
	case p.StoreFrac < 0 || p.StoreFrac > 1:
		return fmt.Errorf("workload %s: StoreFrac out of range", p.Name)
	case p.SharedStoreFrac < 0 || p.SharedStoreFrac > 1:
		return fmt.Errorf("workload %s: SharedStoreFrac out of range", p.Name)
	case p.SharedFrac < 0 || p.SharedFrac > 1:
		return fmt.Errorf("workload %s: SharedFrac out of range", p.Name)
	case p.HotFrac < 0 || p.WarmFrac < 0 || p.HotFrac+p.WarmFrac > 1:
		return fmt.Errorf("workload %s: locality tiers must satisfy 0 <= hot+warm <= 1", p.Name)
	case p.PrivateBlocks <= 0 || p.PrivateHotBlocks <= 0 || p.PrivateWarmBlocks <= 0 ||
		p.PrivateHotBlocks > p.PrivateBlocks || p.PrivateWarmBlocks > p.PrivateBlocks:
		return fmt.Errorf("workload %s: private working-set geometry invalid", p.Name)
	case p.SharedBlocks <= 0 || p.SharedHotBlocks <= 0 || p.SharedWarmBlocks <= 0 ||
		p.SharedHotBlocks > p.SharedBlocks || p.SharedWarmBlocks > p.SharedBlocks:
		return fmt.Errorf("workload %s: shared working-set geometry invalid", p.Name)
	case p.MigratoryFrac < 0 || p.MigratoryFrac > 1:
		return fmt.Errorf("workload %s: MigratoryFrac out of range", p.Name)
	case p.MigratoryFrac > 0 && p.MigratoryLen < 2:
		return fmt.Errorf("workload %s: MigratoryLen must be >= 2", p.Name)
	case p.MigratoryFrac > 0 && p.MigratoryBlocks <= 0:
		return fmt.Errorf("workload %s: MigratoryBlocks must be positive", p.Name)
	case p.HotRotatePeriod == 0:
		return fmt.Errorf("workload %s: HotRotatePeriod must be positive", p.Name)
	}
	return nil
}

const (
	// BlockBytes is the fixed block granularity of generated addresses.
	BlockBytes = 64
	// sharedBase, migratoryBase and privateStride lay out the global
	// address map: read-mostly shared blocks at the bottom, the
	// contended migratory region at 4 GB, each node's private region
	// above 8 GB.
	sharedBase    = uint64(0)
	migratoryBase = uint64(1) << 32
	privateStride = uint64(1) << 33
)

// MigratoryBase returns the base address of the contended migratory
// region.
func MigratoryBase() uint64 { return migratoryBase }

// PrivateBase returns the base address of a node's private region.
func PrivateBase(node int) uint64 { return privateStride * uint64(node+1) }

// synthState is the checkpointable generator state.
type synthState struct {
	rng       uint64
	seq       uint64
	ops       uint64
	burstLeft int
	burstAddr uint64
	hotShift  uint64
}

// Synthetic is the standard Generator implementation.
type Synthetic struct {
	prof  Profile
	node  int
	state synthState
	rng   sim.Rand
}

// NewSynthetic builds a generator for one processor.
func NewSynthetic(prof Profile, node int, seed uint64) *Synthetic {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Synthetic{prof: prof, node: node}
	g.rng = *sim.NewRand(seed ^ uint64(node)*0x9e3779b97f4a7c15)
	g.state.rng = g.rng.Snapshot()
	return g
}

// Profile returns the generator's profile.
func (g *Synthetic) Profile() Profile { return g.prof }

// Snapshot captures the architectural generator state.
func (g *Synthetic) Snapshot() any {
	g.state.rng = g.rng.Snapshot()
	return g.state
}

// Restore rewinds to a snapshot taken earlier.
func (g *Synthetic) Restore(s any) {
	g.state = s.(synthState)
	g.rng.Restore(g.state.rng)
}

// Next produces the next operation.
func (g *Synthetic) Next() Op {
	p := &g.prof
	g.state.ops++
	if g.state.ops%p.HotRotatePeriod == 0 {
		g.state.hotShift++
	}

	nonMem := g.nonMemInstrs()

	// Continue a migratory burst: loads then a final store to the same
	// shared block.
	if g.state.burstLeft > 0 {
		g.state.burstLeft--
		op := Op{NonMemInstrs: nonMem, Addr: g.state.burstAddr}
		if g.state.burstLeft == 0 {
			op.IsStore = true
			op.StoreVal = g.nextVal()
		}
		return op
	}

	if p.IOPer100k > 0 && g.rng.Bool(p.IOPer100k/100_000*float64(1000/p.MemRefsPer1000+1)) {
		return Op{NonMemInstrs: nonMem, IsIO: true, IOVal: g.nextVal()}
	}

	if g.rng.Bool(p.SharedFrac) {
		if p.MigratoryFrac > 0 && g.rng.Bool(p.MigratoryFrac) {
			// Lock-like read-modify-write burst on the contended region.
			addr := migratoryBase + uint64(g.rng.Intn(p.MigratoryBlocks))*BlockBytes
			g.state.burstLeft = p.MigratoryLen - 1
			g.state.burstAddr = addr
			return Op{NonMemInstrs: nonMem, Addr: addr} // first read of the burst
		}
		addr := g.pick(sharedBase, p.SharedBlocks, p.SharedHotBlocks, p.SharedWarmBlocks)
		op := Op{NonMemInstrs: nonMem, Addr: addr}
		if g.rng.Bool(p.SharedStoreFrac) {
			op.IsStore = true
			op.StoreVal = g.nextVal()
		}
		return op
	}

	addr := g.pick(PrivateBase(g.node), p.PrivateBlocks, p.PrivateHotBlocks, p.PrivateWarmBlocks)
	op := Op{NonMemInstrs: nonMem, Addr: addr}
	if g.rng.Bool(p.StoreFrac) {
		op.IsStore = true
		op.StoreVal = g.nextVal()
	}
	return op
}

// nonMemInstrs samples the instruction gap so that references average
// MemRefsPer1000 per 1000 instructions (gap mean = 1000/refs - 1, jittered
// +/- 50%).
func (g *Synthetic) nonMemInstrs() int {
	mean := 1000/g.prof.MemRefsPer1000 - 1
	if mean <= 0 {
		return 0
	}
	return mean/2 + g.rng.Intn(mean+1)
}

// pick selects a block in [base, base+blocks*64) by locality tier: the
// (slowly rotating) hot subset with probability HotFrac, the warm subset
// with probability WarmFrac, else uniformly over the whole region.
func (g *Synthetic) pick(base uint64, blocks, hotBlocks, warmBlocks int) uint64 {
	var idx uint64
	r := g.rng.Float64()
	switch {
	case r < g.prof.HotFrac:
		idx = (g.state.hotShift*uint64(hotBlocks)/4 + uint64(g.rng.Intn(hotBlocks))) % uint64(blocks)
	case r < g.prof.HotFrac+g.prof.WarmFrac:
		// The warm subset sits just past the hot region and rotates an
		// order of magnitude more slowly.
		off := uint64(hotBlocks) + g.state.hotShift/8*uint64(warmBlocks)/4
		idx = (off + uint64(g.rng.Intn(warmBlocks))) % uint64(blocks)
	default:
		idx = uint64(g.rng.Intn(blocks))
	}
	return base + idx*BlockBytes
}

func (g *Synthetic) nextVal() uint64 {
	g.state.seq++
	return uint64(g.node+1)<<48 | g.state.seq
}
