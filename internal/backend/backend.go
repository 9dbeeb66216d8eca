// Package backend defines the protocol-neutral contract every simulated
// target system satisfies. The paper presents SafetyNet as
// protocol-agnostic (footnote 1, §2.3): the directory/torus machine
// (internal/machine) is the evaluated system and the broadcast snooping
// system (internal/snoop) the didactic one, and both implement the same
// lifecycle — build, arm faults, run, quiesce, verify coherence, report
// counters. The experiment harness and the facade program against this
// interface, so every experiment, fault plan, and CLI flag works on
// either protocol.
//
// The package is a leaf: it names the contract without importing either
// implementation (harness.NewBackend constructs the concrete systems and
// asserts they satisfy Backend).
package backend

import (
	"safetynet/internal/cache"
	"safetynet/internal/fault"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
)

// Counters is the statistics slice every backend reports. Fields are
// cumulative since construction; callers diff snapshots to measure a
// window. The logged counts (StoresLogged, TransfersLogged, DirLogged)
// are read from the CLBs' own append counts. The directory machine fills
// every field. The snoop backend leaves the detail fields zero: Stores,
// CoherenceReqs, CLBStallCycles, DirLogged, Bandwidth, CLBPeakBytes and
// RecoveryCycles.
type Counters struct {
	// Instrs is durable forward progress: instructions retired and not
	// rolled back by recoveries.
	Instrs uint64
	// InstrsRolledBack accumulates instructions undone by recoveries.
	InstrsRolledBack uint64
	// StoresLogged and TransfersLogged count CLB update-actions (store
	// overwrites and ownership transfers).
	StoresLogged    uint64
	TransfersLogged uint64
	// Recoveries counts completed system recoveries.
	Recoveries int
	// MessagesSent counts interconnect traffic; MessagesDropped counts
	// fault-induced losses (injected drops, messages lost in killed or
	// unroutable switches, discarded-as-corrupt messages) — not the
	// protocol's own recovery-time discards.
	MessagesSent    uint64
	MessagesDropped uint64

	// Stores counts every store the caches performed, logged or not.
	Stores uint64
	// CoherenceReqs counts coherence requests issued, retries included.
	CoherenceReqs uint64
	// CLBStallCycles is time the caches spent throttled behind a full
	// CLB.
	CLBStallCycles uint64
	// DirLogged counts memory-side CLB appends.
	DirLogged uint64
	// Bandwidth is the caches' port occupancy by cause.
	Bandwidth cache.Bandwidth
	// CLBPeakBytes is the largest occupancy any one CLB has reached.
	CLBPeakBytes int
	// RecoveryCycles holds each completed recovery's coordination
	// latency, oldest first; nil before the first recovery.
	RecoveryCycles []sim.Time
}

// Observer receives backend-neutral run events. Every field is optional:
// nil callbacks are skipped, so the zero value observes nothing. The same
// observer works on both backends; cycle is the simulation time of the
// event and ckpt a checkpoint number. Callbacks run synchronously inside
// the simulation, so they must not mutate the system.
type Observer struct {
	// CheckpointAdvanced fires when the system recovery point moves
	// forward to ckpt (a checkpoint validated).
	CheckpointAdvanced func(cycle uint64, ckpt uint32)
	// RecoveryStarted fires when a system recovery begins; cause names
	// the detection event.
	RecoveryStarted func(cycle uint64, cause string)
	// RecoveryCompleted fires at the restart broadcast: every node has
	// rolled back to ckpt. latency is the coordination cost in cycles,
	// excluding re-execution of lost work.
	RecoveryCompleted func(cycle uint64, ckpt uint32, latency uint64)
	// FaultFired fires when an armed fault event actually triggers; kind
	// is the event's stable kind tag (fault.KindDropOnce, ...). Periodic
	// events fire once per triggering.
	FaultFired func(cycle uint64, kind string)
	// Crashed fires when an unprotected system dies.
	Crashed func(cycle uint64, cause string)
}

// Observers is the fan-out list a backend notifies. The helper methods
// tolerate nil lists, nil observers, and nil callbacks so backend hot
// paths can notify unconditionally.
type Observers []*Observer

// CheckpointAdvanced notifies every observer of a recovery-point advance.
func (os Observers) CheckpointAdvanced(cycle uint64, ckpt uint32) {
	for _, o := range os {
		if o != nil && o.CheckpointAdvanced != nil {
			o.CheckpointAdvanced(cycle, ckpt)
		}
	}
}

// RecoveryStarted notifies every observer a recovery began.
func (os Observers) RecoveryStarted(cycle uint64, cause string) {
	for _, o := range os {
		if o != nil && o.RecoveryStarted != nil {
			o.RecoveryStarted(cycle, cause)
		}
	}
}

// RecoveryCompleted notifies every observer a recovery finished.
func (os Observers) RecoveryCompleted(cycle uint64, ckpt uint32, latency uint64) {
	for _, o := range os {
		if o != nil && o.RecoveryCompleted != nil {
			o.RecoveryCompleted(cycle, ckpt, latency)
		}
	}
}

// FaultFired notifies every observer an armed fault triggered.
func (os Observers) FaultFired(cycle uint64, kind string) {
	for _, o := range os {
		if o != nil && o.FaultFired != nil {
			o.FaultFired(cycle, kind)
		}
	}
}

// Crashed notifies every observer the system died.
func (os Observers) Crashed(cycle uint64, cause string) {
	for _, o := range os {
		if o != nil && o.Crashed != nil {
			o.Crashed(cycle, cause)
		}
	}
}

// Backend is one simulated SafetyNet target system.
type Backend interface {
	// Start launches the processors (and any checkpoint machinery).
	Start()
	// Run advances the simulation to the given absolute cycle and returns
	// the reached time; a crash of an unprotected system stops it early.
	Run(until sim.Time) sim.Time
	// Now returns the current simulation time.
	Now() sim.Time
	// TotalInstrs sums durable retired instructions across processors.
	TotalInstrs() uint64
	// RPCN returns the system recovery point.
	RPCN() msg.CN
	// Quiesce pauses the processors and drains outstanding transactions
	// within the budget, reporting success; CheckCoherence is only
	// meaningful at quiescence.
	Quiesce(budget sim.Time) bool
	// Resume restarts the processors after a Quiesce.
	Resume()
	// CheckCoherence verifies the protocol invariants at quiescence and
	// returns the violations (empty means coherent).
	CheckCoherence() []string
	// L2 returns the L2 array of the given node, for invariant checks;
	// callers must not change it.
	L2(node int) *cache.Array
	// CrashInfo reports whether the system crashed and why (always false
	// for protected systems).
	CrashInfo() (crashed bool, cause string)
	// Counters returns the cumulative protocol-neutral statistics.
	Counters() Counters
	// FaultTarget returns the slice of this system fault events arm on;
	// events the backend cannot express fail with fault.ErrUnsupported.
	FaultTarget() fault.Target
	// Observe registers a run observer. Call before Start; observers
	// fire synchronously as the run produces events.
	Observe(*Observer)
	// Release hands the system's cache frames to the next backend built
	// in this process (cache.Array.Release). Nothing may use the backend
	// afterwards, not even Counters: its arrays are gone. runner.RunCtx
	// owns the call for every backend it builds; a backend that is never
	// released is simply collected.
	Release()
}
