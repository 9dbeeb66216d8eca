// Package config holds every parameter of the simulated target system.
// The defaults reproduce Table 2 of the paper: a 16-processor SPARC-class
// server with 128KB 4-way L1s, a 4MB 4-way L2, 64-byte blocks, a 2D torus
// with 6.4 GB/s links, a MOSI directory protocol, a 100,000-cycle
// checkpoint interval, and 512KB Checkpoint Log Buffers.
package config

import "fmt"

// Coherence-protocol backends. The paper evaluates the directory/torus
// system and notes (footnote 1, §2.3) that SafetyNet applies equally to a
// broadcast snooping protocol, where logical time is simply the total
// snoop order.
const (
	// ProtocolDirectory is the MOSI directory protocol on a 2D torus —
	// the paper's evaluated target system.
	ProtocolDirectory = "directory"
	// ProtocolSnoop is the broadcast snooping MOSI protocol on a totally
	// ordered bus (footnote 1's variant; always SafetyNet-protected).
	ProtocolSnoop = "snoop"
)

// Protocols lists the available coherence-protocol backends.
func Protocols() []string { return []string{ProtocolDirectory, ProtocolSnoop} }

// Params describes one simulated system. The zero value is not meaningful;
// start from Default and adjust.
type Params struct {
	// --- Coherence protocol ---

	// Protocol selects the coherence backend: ProtocolDirectory or
	// ProtocolSnoop. Empty selects the directory system, so configurations
	// predating the protocol axis keep their meaning.
	Protocol string

	// --- Machine geometry ---

	// NumNodes is the number of processor/memory nodes. It must be
	// TorusWidth*TorusHeight.
	NumNodes int
	// TorusWidth and TorusHeight give the 2D torus dimensions (paper: 4x4).
	TorusWidth, TorusHeight int

	// --- Memory hierarchy (Table 2) ---

	// BlockBytes is the coherence/cache block size (64 bytes).
	BlockBytes int
	// L1Bytes and L1Ways give the per-node L1 data cache geometry
	// (128 KB, 4-way).
	L1Bytes, L1Ways int
	// L2Bytes and L2Ways give the per-node L2 geometry (4 MB, 4-way).
	L2Bytes, L2Ways int
	// MemoryBytesPerNode is the slice of shared memory homed at each node.
	// Only the address-space extent matters to the simulator; data storage
	// is allocated sparsely.
	MemoryBytesPerNode uint64

	// --- Latencies (cycles; 1 cycle = 1 ns at 1 GHz) ---

	// L1HitCycles, L2HitCycles are load-to-use latencies per level.
	L1HitCycles, L2HitCycles uint64
	// MemAccessCycles is the DRAM array access time at the home node;
	// combined with two network traversals it yields the paper's 180 ns
	// uncontended 2-hop miss.
	MemAccessCycles uint64
	// DirAccessCycles is directory lookup/update occupancy.
	DirAccessCycles uint64
	// SwitchHopCycles is per-hop switch traversal latency.
	SwitchHopCycles uint64
	// LinkBytesPerCycle is link bandwidth (6.4 GB/s = 6.4 bytes/cycle);
	// expressed in tenths to stay integral: 64 means 6.4 B/cycle.
	LinkBytesPerCycleTenths uint64

	// --- Processor model ---

	// NonMemIPC is instructions per cycle for non-memory instructions
	// (the paper's core would run 4 billion instructions/s on a perfect
	// memory system at 1 GHz).
	NonMemIPC int

	// --- SafetyNet parameters ---

	// SafetyNetEnabled selects the protected system; false gives the
	// unprotected baseline (no logging, no checkpoints, faults crash).
	SafetyNetEnabled bool
	// CheckpointIntervalCycles is the checkpoint-clock period
	// (paper: 100,000 cycles = 100 us at 1 GHz, i.e. fc = 10 kHz).
	CheckpointIntervalCycles uint64
	// MaxOutstandingCheckpoints bounds checkpoints pending validation
	// (paper: 4, giving 400,000 cycles of detection-latency tolerance).
	MaxOutstandingCheckpoints int
	// CLBBytes is the per-node Checkpoint Log Buffer capacity shared by
	// the cache-side and memory-side logs (paper: 512 KB total).
	CLBBytes int
	// CLBEntryBytes is the log-entry footprint (8-byte address +
	// 64-byte data = 72 bytes).
	CLBEntryBytes int
	// RegisterCheckpointCycles is the processor stall charged at each
	// checkpoint-clock edge to shadow the registers (paper: 100 cycles,
	// conservative).
	RegisterCheckpointCycles uint64
	// LogStoreCycles is cache occupancy charged to read the old block
	// copy out on a logged store overwrite (paper: 8 cycles at
	// 8 bytes/cycle for a 64-byte block).
	LogStoreCycles uint64
	// DisableLogDedup turns off the first-update-per-interval
	// optimization (paper §2.2): every store overwrite and ownership
	// transfer logs, as a naive logging scheme would. Ablation knob for
	// quantifying the paper's claim that coarse checkpoint granularity
	// cuts log overhead by one to two orders of magnitude.
	DisableLogDedup bool
	// DisablePipelinedValidation makes checkpoint validation synchronous:
	// execution stalls at each checkpoint edge until that checkpoint
	// becomes the recovery point. Ablation knob for the paper's claim
	// that pipelining validation off the critical path hides
	// fault-detection latency.
	DisablePipelinedValidation bool
	// CheckpointClockSkewCycles is the maximum per-node skew of the
	// loosely synchronized checkpoint clock. It must stay below the
	// minimum node-to-node message latency so no message travels
	// backward in logical time (paper fn. 2).
	CheckpointClockSkewCycles uint64

	// --- Fault detection ---

	// ValidationSignoffCycles models the latency of the fault-detection
	// mechanisms that must "sign off" on a checkpoint's absence of
	// faults before it can validate (paper §2.4: CRCs, timeouts,
	// checkers). A component reports readiness for checkpoint k only
	// this many cycles after edge k. The paper's fault-free average is
	// "one or a few checkpoint intervals".
	ValidationSignoffCycles uint64
	// RequestTimeoutCycles is the requestor's transaction timeout; it is
	// the detection latency for dropped messages and must be less than
	// the CN wraparound time (paper fn. 3).
	RequestTimeoutCycles uint64
	// ValidationWatchdogCycles triggers a recovery when the recovery
	// point has not advanced for this long (a lost validation or ack
	// message stalls advancement; the watchdog converts the stall into a
	// recovery).
	ValidationWatchdogCycles uint64

	// --- Simulation methodology ---

	// Seed feeds all pseudo-randomness (workloads, perturbation).
	Seed uint64
	// LatencyPerturbation, when nonzero, adds a pseudo-random 0..N-cycle
	// jitter to memory access occupancy, implementing the Alameldeen et
	// al. methodology of perturbing runs to explore alternative
	// interleavings.
	LatencyPerturbation uint64
}

// Default returns the paper's Table 2 target system with SafetyNet enabled.
func Default() Params {
	return Params{
		Protocol: ProtocolDirectory,

		NumNodes:    16,
		TorusWidth:  4,
		TorusHeight: 4,

		BlockBytes:         64,
		L1Bytes:            128 << 10,
		L1Ways:             4,
		L2Bytes:            4 << 20,
		L2Ways:             4,
		MemoryBytesPerNode: (2 << 30) / 16,

		L1HitCycles:             2,
		L2HitCycles:             12,
		MemAccessCycles:         70,
		DirAccessCycles:         6,
		SwitchHopCycles:         10,
		LinkBytesPerCycleTenths: 64,

		NonMemIPC: 4,

		SafetyNetEnabled:          true,
		CheckpointIntervalCycles:  100_000,
		MaxOutstandingCheckpoints: 4,
		CLBBytes:                  512 << 10,
		CLBEntryBytes:             72,
		RegisterCheckpointCycles:  100,
		LogStoreCycles:            8,
		CheckpointClockSkewCycles: 0,

		ValidationSignoffCycles:  100_000,
		RequestTimeoutCycles:     25_000,
		ValidationWatchdogCycles: 600_000,

		Seed:                1,
		LatencyPerturbation: 0,
	}
}

// Unprotected returns the baseline system of the paper's Experiment 1: the
// same machine without SafetyNet.
func Unprotected() Params {
	p := Default()
	p.SafetyNetEnabled = false
	return p
}

// ProtocolName returns the selected coherence backend, mapping the empty
// string to ProtocolDirectory.
func (p Params) ProtocolName() string {
	if p.Protocol == "" {
		return ProtocolDirectory
	}
	return p.Protocol
}

// Normalize clamps dependent SafetyNet parameters into the consistent
// region Validate demands, returning the adjusted copy. It encodes the
// cross-parameter rules that every front end (CLI flags, scenario files,
// programmatic configs) would otherwise re-implement: the validation
// signoff cannot exceed the checkpoint interval it is expressed against,
// and the validation watchdog must strictly exceed the interval or it
// would fire on healthy steady state. safetynet.New applies it, so a
// front end adjusting CheckpointIntervalCycles alone cannot assemble an
// inconsistent configuration. Normalize never repairs outright-invalid
// parameters (zero interval, bad geometry): those still fail Validate.
func (p Params) Normalize() Params {
	if !p.SafetyNetEnabled || p.CheckpointIntervalCycles == 0 {
		return p
	}
	if p.ValidationSignoffCycles > p.CheckpointIntervalCycles {
		p.ValidationSignoffCycles = p.CheckpointIntervalCycles
	}
	if p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles {
		p.ValidationWatchdogCycles = 6 * p.CheckpointIntervalCycles
	}
	return p
}

// L1Sets returns the number of L1 sets.
func (p Params) L1Sets() int { return p.L1Bytes / (p.BlockBytes * p.L1Ways) }

// L2Sets returns the number of L2 sets.
func (p Params) L2Sets() int { return p.L2Bytes / (p.BlockBytes * p.L2Ways) }

// CLBEntries returns how many log entries fit in one node's CLB.
func (p Params) CLBEntries() int { return p.CLBBytes / p.CLBEntryBytes }

// DetectionToleranceCycles returns the longest fault-detection latency the
// configuration tolerates: the span of checkpoints pending validation.
func (p Params) DetectionToleranceCycles() uint64 {
	return p.CheckpointIntervalCycles * uint64(p.MaxOutstandingCheckpoints)
}

// SignoffIntervals returns the validation signoff expressed in whole
// checkpoint intervals.
func (p Params) SignoffIntervals() int {
	if p.CheckpointIntervalCycles == 0 {
		return 0
	}
	return int(p.ValidationSignoffCycles / p.CheckpointIntervalCycles)
}

// SerializationCycles returns the link occupancy of a message of the given
// size in bytes, rounding up.
func (p Params) SerializationCycles(bytes int) uint64 {
	if bytes <= 0 {
		return 0
	}
	b := uint64(bytes) * 10
	return (b + p.LinkBytesPerCycleTenths - 1) / p.LinkBytesPerCycleTenths
}

// Validate reports the first configuration error, or nil.
func (p Params) Validate() error {
	switch p.ProtocolName() {
	case ProtocolDirectory:
	case ProtocolSnoop:
		if !p.SafetyNetEnabled {
			return fmt.Errorf("config: the snooping backend is always SafetyNet-protected (the unprotected baseline exists only on the directory system)")
		}
	default:
		return fmt.Errorf("config: unknown protocol %q (have %q, %q)",
			p.Protocol, ProtocolDirectory, ProtocolSnoop)
	}
	switch {
	case p.NumNodes <= 0:
		return fmt.Errorf("config: NumNodes must be positive, got %d", p.NumNodes)
	case p.ProtocolName() == ProtocolDirectory && p.NumNodes > 32:
		// The directory's sharer lists and the cache controllers'
		// invalidation-ack matching are per-node bitmaps (32 and 64 bits);
		// reject configurations they cannot represent.
		return fmt.Errorf("config: NumNodes %d exceeds the directory's 32-node sharer-bitmap limit", p.NumNodes)
	case p.ProtocolName() == ProtocolSnoop && p.NumNodes > 64:
		// The snooping bus's presence filter keeps one bit per node in a
		// 64-bit mask per block.
		return fmt.Errorf("config: NumNodes %d exceeds the snooping bus's 64-node presence-mask limit", p.NumNodes)
	// Torus geometry only constrains the directory backend; the snooping
	// bus has no switches, so resizing a snoop system needs only NumNodes.
	case p.ProtocolName() == ProtocolDirectory && p.TorusWidth*p.TorusHeight != p.NumNodes:
		return fmt.Errorf("config: torus %dx%d does not cover %d nodes",
			p.TorusWidth, p.TorusHeight, p.NumNodes)
	case p.ProtocolName() == ProtocolDirectory && (p.TorusWidth < 2 || p.TorusHeight < 2):
		return fmt.Errorf("config: torus dimensions must be >= 2, got %dx%d",
			p.TorusWidth, p.TorusHeight)
	case p.BlockBytes <= 0 || p.BlockBytes&(p.BlockBytes-1) != 0:
		return fmt.Errorf("config: BlockBytes must be a positive power of two, got %d", p.BlockBytes)
	case p.L1Ways <= 0 || p.L2Ways <= 0:
		return fmt.Errorf("config: cache associativity must be positive")
	case p.L1Bytes%(p.BlockBytes*p.L1Ways) != 0:
		return fmt.Errorf("config: L1 size %d not divisible into %d-way sets of %d-byte blocks",
			p.L1Bytes, p.L1Ways, p.BlockBytes)
	case p.L2Bytes%(p.BlockBytes*p.L2Ways) != 0:
		return fmt.Errorf("config: L2 size %d not divisible into %d-way sets of %d-byte blocks",
			p.L2Bytes, p.L2Ways, p.BlockBytes)
	case p.L1Sets() < 1:
		return fmt.Errorf("config: L1 size %d holds no %d-way set of %d-byte blocks",
			p.L1Bytes, p.L1Ways, p.BlockBytes)
	case p.L2Sets() < 1:
		return fmt.Errorf("config: L2 size %d holds no %d-way set of %d-byte blocks",
			p.L2Bytes, p.L2Ways, p.BlockBytes)
	case p.MemoryBytesPerNode == 0:
		return fmt.Errorf("config: MemoryBytesPerNode must be positive")
	case p.NonMemIPC <= 0:
		return fmt.Errorf("config: NonMemIPC must be positive, got %d", p.NonMemIPC)
	case p.LinkBytesPerCycleTenths == 0:
		return fmt.Errorf("config: link bandwidth must be positive")
	}
	if p.SafetyNetEnabled {
		switch {
		case p.CheckpointIntervalCycles == 0:
			return fmt.Errorf("config: checkpoint interval must be positive")
		case p.MaxOutstandingCheckpoints < 1:
			return fmt.Errorf("config: need at least one outstanding checkpoint, got %d",
				p.MaxOutstandingCheckpoints)
		case p.CLBEntryBytes <= 0:
			return fmt.Errorf("config: CLBEntryBytes must be positive")
		case p.CLBBytes/2 < p.CLBEntryBytes:
			// Each protected node splits the CLB into a cache-side and a
			// memory-side half; both must hold an entry.
			return fmt.Errorf("config: CLB of %d bytes cannot hold one %d-byte entry in each half",
				p.CLBBytes, p.CLBEntryBytes)
		case p.CheckpointClockSkewCycles >= p.minMessageLatency():
			return fmt.Errorf("config: checkpoint clock skew %d must be below the minimum message latency %d (logical-time validity)",
				p.CheckpointClockSkewCycles, p.minMessageLatency())
		case p.RequestTimeoutCycles == 0:
			return fmt.Errorf("config: request timeout must be positive")
		case p.SignoffIntervals() >= p.MaxOutstandingCheckpoints:
			return fmt.Errorf("config: validation signoff of %d intervals needs more than %d outstanding checkpoints",
				p.SignoffIntervals(), p.MaxOutstandingCheckpoints)
		case p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles:
			return fmt.Errorf("config: validation watchdog %d must exceed the checkpoint interval %d",
				p.ValidationWatchdogCycles, p.CheckpointIntervalCycles)
		}
	}
	return nil
}

// minMessageLatency is the smallest possible node-to-node message latency:
// one switch hop plus serialization of the smallest (control) message.
func (p Params) minMessageLatency() uint64 {
	return p.SwitchHopCycles + p.SerializationCycles(8)
}
