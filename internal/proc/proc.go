// Package proc models the paper's processor (§4.1): an in-order core that
// would retire NonMemIPC instructions per cycle on a perfect memory
// system, issues blocking loads and stores to the cache hierarchy, and
// checkpoints its architectural state — registers, modeled here together
// with the workload-generator state that stands in for program state — at
// every checkpoint-clock edge, paying a conservative fixed stall
// (paper: 100 cycles).
package proc

import (
	"safetynet/internal/config"
	"safetynet/internal/iodev"
	"safetynet/internal/msg"
	"safetynet/internal/protocol"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// Snapshot is the processor's architectural state at a checkpoint.
type Snapshot struct {
	Gen    workload.State
	Instrs uint64
	Carry  int
}

// Stats counts processor activity.
type Stats struct {
	MemRefs uint64
	IOOps   uint64
	// CkptStallCycles is time lost to register checkpointing.
	CkptStallCycles uint64
	// BackpressureStalls counts pauses forced by the outstanding-
	// checkpoint bound (validation fell behind).
	BackpressureStalls uint64
}

// Processor drives one node.
type Processor struct {
	node int
	eng  *sim.Engine
	p    config.Params
	cc   *protocol.CacheController
	gen  *workload.Synthetic
	out  *iodev.OutputBuffer

	instrs uint64
	carry  int

	running  bool
	inFlight bool
	epoch    int
	// op is the transactional access in flight (meaningful while
	// inFlight, from the batch that stopped at it to its completion).
	op workload.Op
	cb epochCallbacks

	pendingStall sim.Time

	stats Stats
}

// epochCallbacks are the processor's event callbacks for one recovery
// epoch. They are bound once per epoch and each captures that epoch, so
// an event scheduled before a Restore finds itself stale when it fires,
// and scheduling one allocates nothing.
type epochCallbacks struct {
	// issue sends the in-flight access once its batch's time elapsed.
	issue func()
	// resume continues execution at the end of a batch quantum.
	resume func()
	// storeDone and loadDone complete the in-flight access.
	storeDone func()
	loadDone  func(uint64)
}

// New builds a processor. out may be nil when the workload performs no
// I/O.
func New(node int, eng *sim.Engine, p config.Params, cc *protocol.CacheController, gen *workload.Synthetic, out *iodev.OutputBuffer) *Processor {
	pr := &Processor{node: node, eng: eng, p: p, cc: cc, gen: gen, out: out}
	pr.bindEpoch()
	return pr
}

// bindEpoch builds the callbacks of the current epoch.
func (pr *Processor) bindEpoch() {
	ep := pr.epoch
	complete := func() {
		if pr.epoch != ep {
			return
		}
		pr.instrs += uint64(pr.op.NonMemInstrs) + 1
		pr.inFlight = false
		pr.next()
	}
	pr.cb = epochCallbacks{
		issue: func() {
			if pr.epoch == ep {
				pr.issueSlow()
			}
		},
		resume: func() {
			if pr.epoch == ep {
				pr.inFlight = false
				pr.next()
			}
		},
		storeDone: complete,
		loadDone:  func(uint64) { complete() },
	}
}

// Instrs returns retired instructions (rolled back by recoveries, so it
// measures durable forward progress).
func (pr *Processor) Instrs() uint64 { return pr.instrs }

// Stats returns a copy of the statistics.
func (pr *Processor) Stats() Stats { return pr.stats }

// Running reports whether the processor is executing.
func (pr *Processor) Running() bool { return pr.running }

// Start begins execution at the current simulation time.
func (pr *Processor) Start() {
	pr.running = true
	if !pr.inFlight {
		pr.next()
	}
}

// Pause stops issuing new work (the in-flight operation, if any, still
// completes). Used for the outstanding-checkpoint bound: SafetyNet stalls
// execution rather than discard the recovery point (paper §3.5).
func (pr *Processor) Pause() {
	if pr.running {
		pr.stats.BackpressureStalls++
	}
	pr.running = false
}

// Resume continues after a Pause or a recovery restart.
func (pr *Processor) Resume() {
	if pr.running {
		return
	}
	pr.running = true
	if !pr.inFlight {
		pr.next()
	}
}

// AddCheckpointStall charges the register-checkpoint latency to the next
// instruction boundary.
func (pr *Processor) AddCheckpointStall() {
	pr.pendingStall += sim.Time(pr.p.RegisterCheckpointCycles)
	pr.stats.CkptStallCycles += pr.p.RegisterCheckpointCycles
}

// Snapshot captures architectural state (for the register checkpoint).
func (pr *Processor) Snapshot() Snapshot {
	return Snapshot{Gen: pr.gen.Snapshot(), Instrs: pr.instrs, Carry: pr.carry}
}

// Restore rewinds to a snapshot; the processor stays paused until the
// restart broadcast resumes it. Any in-flight operation is abandoned (its
// transaction state was discarded by the cache controller's recovery).
func (pr *Processor) Restore(s Snapshot) {
	pr.gen.Restore(s.Gen)
	pr.instrs = s.Instrs
	pr.carry = s.Carry
	pr.epoch++
	pr.bindEpoch()
	pr.inFlight = false
	pr.running = false
	pr.pendingStall = 0
}

// batchQuantum bounds how much simulated time one processor event may
// cover when executing cache-hit runs inline. Small relative to the
// checkpoint interval, so edge-relative skew stays negligible, but large
// enough to amortize event overhead.
const batchQuantum = sim.Time(512)

// next executes operations until a transactional (miss/upgrade) access or
// the batch quantum is exhausted. Cache hits are applied inline through
// the cache controller's fast path; only misses and quantum boundaries
// touch the event queue.
//
//snvet:alloc-free
func (pr *Processor) next() {
	if !pr.running || pr.inFlight {
		return
	}
	pr.inFlight = true
	local := pr.pendingStall
	pr.pendingStall = 0

	for {
		op := pr.gen.Next()
		total := op.NonMemInstrs + pr.carry
		local += sim.Time(total / pr.p.NonMemIPC)
		pr.carry = total % pr.p.NonMemIPC

		if op.IsIO {
			pr.stats.IOOps++
			if pr.out != nil {
				pr.out.Write(op.IOVal, pr.cc.CCN())
			}
			local++
			pr.instrs += uint64(op.NonMemInstrs) + 1
		} else if lat, ok := pr.cc.FastAccess(op.Addr, op.IsStore, op.StoreVal); ok {
			pr.stats.MemRefs++
			local += lat
			pr.instrs += uint64(op.NonMemInstrs) + 1
		} else {
			// Transactional access: issue through the blocking slow
			// path after the accumulated local time elapses.
			pr.op = op
			pr.eng.After(local, pr.cb.issue)
			return
		}
		if local >= batchQuantum {
			pr.eng.After(local, pr.cb.resume)
			return
		}
	}
}

// issueSlow sends the in-flight access through the cache controller's
// transactional path.
//
//snvet:alloc-free
func (pr *Processor) issueSlow() {
	pr.stats.MemRefs++
	if pr.op.IsStore {
		pr.cc.Store(pr.op.Addr, pr.op.StoreVal, pr.cb.storeDone)
		return
	}
	pr.cc.Load(pr.op.Addr, pr.cb.loadDone)
}

// CCN exposes the node's current checkpoint number (the cache
// controller's, which ticks on the same node clock edge).
func (pr *Processor) CCN() msg.CN { return pr.cc.CCN() }
