// Package machine assembles the full system: 16 nodes (processor, cache
// controller, directory/memory controller, register-checkpoint ring,
// output buffer) on a 2D torus, plus — when SafetyNet is enabled — the
// checkpoint clock and the redundant service controllers. It implements
// the node-level choreography of checkpoint creation, validation
// coordination, recovery and restart, and the crash semantics of the
// unprotected baseline.
package machine

import (
	"fmt"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/iodev"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/proc"
	"safetynet/internal/protocol"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// Node bundles one processor/memory node.
type Node struct {
	ID   int
	CC   *protocol.CacheController
	Dir  *protocol.DirController
	Proc *proc.Processor
	Out  *iodev.OutputBuffer
	In   *iodev.InputLog
	Ring *core.RegRing

	m           *Machine
	rpcn        msg.CN
	lastReady   msg.CN
	pausedBP    bool // paused by the outstanding-checkpoint bound
	pausedSync  bool // paused by the synchronous-validation ablation
	syncWaitFor msg.CN

	// RecoveredEntries counts CLB entries unrolled across recoveries.
	RecoveredEntries int
}

// Machine is a complete simulated system.
type Machine struct {
	// Eng is the event engine that drives the whole system.
	Eng   *sim.Engine
	P     config.Params
	Topo  *topology.Torus
	Net   *network.Network
	Clock *core.Clock
	Nodes []*Node
	// Svc holds the redundant service controllers (nil when SafetyNet is
	// disabled); Svc[0] starts active.
	Svc      [2]*core.Controller
	svcHomes [2]int

	home       protocol.HomeFunc
	recovering bool
	// quiescing makes the paused state sticky: recovery restarts and
	// validation back-pressure releases do not resume the processors
	// while a Quiesce is draining (see the backend.Backend contract).
	quiescing bool

	// Crash state of the unprotected baseline.
	Crashed    bool
	CrashCause string
	CrashTime  sim.Time

	// InstrsRolledBack accumulates instructions undone by recoveries
	// (the re-executed "lost work" that dominates recovery latency,
	// paper §4.2 Experiment 2).
	InstrsRolledBack uint64

	// AfterRecovery, when set, runs at the instant a system recovery
	// completes — every node restored, restart not yet broadcast. Tests
	// use it to observe the exact recovery-point state before
	// re-execution moves the system forward again.
	AfterRecovery func()

	// obs holds the registered backend-neutral run observers.
	obs backend.Observers
}

// New builds a machine running the given workload profile on every
// processor. It panics on invalid configuration (programming error).
func New(p config.Params, profile workload.Profile) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	m := &Machine{
		Eng:  eng,
		P:    p,
		Topo: topology.New(p.TorusWidth, p.TorusHeight),
		home: protocol.InterleavedHome(p.BlockBytes, p.NumNodes),
	}
	m.Net = network.New(eng, m.Topo, p)
	m.Net.OnInjectedFault(func(kind string) {
		m.obs.FaultFired(uint64(eng.Now()), kind)
	})

	for n := 0; n < p.NumNodes; n++ {
		node := &Node{ID: n, m: m, rpcn: 1, lastReady: 1}
		node.CC = protocol.NewCacheController(n, eng, m.Net, p, m.home)
		node.Dir = protocol.NewDirController(n, eng, m.Net, p)
		gen := workload.NewSynthetic(profile, n, p.Seed)
		node.Out = iodev.NewOutputBuffer()
		node.Proc = proc.New(n, eng, p, node.CC, gen, node.Out)
		node.Ring = core.NewRegRing()
		node.Ring.Add(1, node.Proc.Snapshot())
		node.CC.OnFault = m.faultReporter(n)
		node.CC.OnReadyChange = node.evalReady
		node.Dir.OnReadyChange = node.evalReady
		m.Nodes = append(m.Nodes, node)
		m.Net.Attach(n, node.deliver)
	}

	if p.SafetyNetEnabled {
		m.svcHomes = [2]int{0, p.NumNodes / 2}
		hooks := core.Hooks{
			Quiesce:   m.quiesce,
			Unquiesce: m.unquiesce,
			Advanced: func(cn msg.CN) {
				m.obs.CheckpointAdvanced(uint64(eng.Now()), uint32(cn))
			},
			RecoveryStarted: func(cause string) {
				m.obs.RecoveryStarted(uint64(eng.Now()), cause)
			},
			RecoveryCompleted: func(rec core.RecoveryRecord) {
				m.obs.RecoveryCompleted(uint64(eng.Now()),
					uint32(rec.RecoveryPoint), uint64(rec.Duration()))
			},
		}
		for i, home := range m.svcHomes {
			prev := eng.SetOwner(home)
			m.Svc[i] = core.NewController(eng, home, p.NumNodes,
				func(mm *msg.Message) { m.Net.Send(mm) },
				m.Net.Epoch,
				sim.Time(p.ValidationWatchdogCycles),
				hooks)
			eng.SetOwner(prev)
		}
		prev := eng.SetOwner(m.svcHomes[0])
		m.Svc[0].Activate()
		eng.SetOwner(prev)

		skew := make([]sim.Time, p.NumNodes)
		if p.CheckpointClockSkewCycles > 0 {
			r := sim.NewRand(p.Seed ^ 0x5ce3)
			for i := range skew {
				skew[i] = sim.Time(r.Uint64n(p.CheckpointClockSkewCycles + 1))
			}
		}
		m.Clock = core.NewClock(eng, sim.Time(p.CheckpointIntervalCycles), p.NumNodes, skew,
			func() bool { return m.recovering })
		for n := 0; n < p.NumNodes; n++ {
			node := m.Nodes[n]
			m.Clock.OnEdge(n, node.onEdge)
		}
	}
	return m
}

// Start launches every processor (and the checkpoint clock). Each
// processor's event stream is owned by its node, which fixes its place in
// the engine's within-cycle order.
func (m *Machine) Start() {
	for _, n := range m.Nodes {
		prev := m.Eng.SetOwner(n.ID)
		n.Proc.Start()
		m.Eng.SetOwner(prev)
	}
	if m.Clock != nil {
		m.Clock.Start()
	}
}

// Run advances the simulation to the given absolute cycle (or until a
// crash stops it) and returns the final time.
func (m *Machine) Run(until sim.Time) sim.Time { return m.Eng.Run(until) }

// RPCN returns the system recovery point (1 when unprotected).
func (m *Machine) RPCN() msg.CN {
	for _, s := range m.Svc {
		if s != nil && s.Active() {
			return s.RPCN()
		}
	}
	return 1
}

// ActiveService returns the coordinating service controller, or nil.
func (m *Machine) ActiveService() *core.Controller {
	for _, s := range m.Svc {
		if s != nil && s.Active() {
			return s
		}
	}
	return nil
}

// Recovering reports whether a system recovery is in progress.
func (m *Machine) Recovering() bool { return m.recovering }

// TotalInstrs sums retired instructions across processors.
func (m *Machine) TotalInstrs() uint64 {
	var t uint64
	for _, n := range m.Nodes {
		t += n.Proc.Instrs()
	}
	return t
}

// quiesce and unquiesce flip the machine-wide recovery flags and, on
// entry, the network epoch.
func (m *Machine) quiesce() {
	m.recovering = true
	m.Net.SetRecovering(true)
	m.Net.BumpEpoch()
}

func (m *Machine) unquiesce() {
	m.recovering = false
	m.Net.SetRecovering(false)
	if m.AfterRecovery != nil {
		m.AfterRecovery()
	}
}

// faultReporter converts a detected fault into a recovery request
// (SafetyNet) or a crash (unprotected baseline).
func (m *Machine) faultReporter(node int) func(string) {
	return func(cause string) {
		if !m.P.SafetyNetEnabled {
			m.crash(cause)
			return
		}
		if m.recovering {
			return
		}
		for _, home := range m.svcHomes {
			req := msg.Alloc()
			*req = msg.Message{Type: msg.RecoverReq, Src: node, Dst: home}
			m.Net.Send(req)
		}
	}
}

func (m *Machine) crash(cause string) {
	if m.Crashed {
		return
	}
	m.Crashed = true
	m.CrashCause = cause
	m.CrashTime = m.Eng.Now()
	m.obs.Crashed(uint64(m.CrashTime), cause)
	m.Eng.Stop()
}

// flushToMem absorbs a validated dirty victim displaced during recovery
// directly into its home memory image (a recovery-time writeback; the
// system is globally quiesced).
func (m *Machine) flushToMem(addr, data uint64) {
	m.Nodes[m.home(addr)].Dir.DirectWriteback(addr, data)
}

// ---------------------------------------------------------------------
// Node choreography
// ---------------------------------------------------------------------

// deliver dispatches a message arriving at this node's network interface.
// Protocol messages pass ownership to their controller; coordination
// messages are consumed synchronously and released here.
func (n *Node) deliver(mm *msg.Message) {
	switch mm.Type {
	case msg.GETS, msg.GETX, msg.PUTX, msg.AckDone:
		n.Dir.Handle(mm)
	case msg.FwdGETS, msg.FwdGETX, msg.Inv, msg.Data, msg.DataEx,
		msg.AckCount, msg.InvAck, msg.NackReq, msg.WBAck, msg.WBStale:
		n.CC.Handle(mm)
	case msg.CkptReady, msg.RecoverReq, msg.RecoverDone:
		for i, home := range n.m.svcHomes {
			if home == n.ID && n.m.Svc[i] != nil {
				n.m.Svc[i].Handle(mm)
			}
		}
		msg.Release(mm)
	case msg.RPCNBcast:
		cn := mm.CN
		msg.Release(mm)
		n.onValidate(cn)
	case msg.Recover:
		cn := mm.CN
		msg.Release(mm)
		n.onRecover(cn)
	case msg.Restart:
		msg.Release(mm)
		n.onRestart()
	default:
		panic(fmt.Sprintf("machine: node %d got %v", n.ID, mm))
	}
}

// onEdge creates a local checkpoint at a checkpoint-clock edge: bump the
// component CCNs, shadow the registers, and charge the checkpoint stall.
func (n *Node) onEdge() {
	n.CC.OnEdge()
	n.Dir.OnEdge()
	cn := n.CC.CCN()
	n.Ring.Add(cn, n.Proc.Snapshot())
	n.Proc.AddCheckpointStall()
	if int(cn-n.rpcn) > n.m.P.MaxOutstandingCheckpoints {
		// Too many checkpoints pending validation: stall execution
		// rather than discard the recovery point (paper §3.5).
		n.Proc.Pause()
		n.pausedBP = true
	}
	if n.m.P.DisablePipelinedValidation {
		// Ablation: validation on the critical path — stall until this
		// checkpoint becomes the recovery point.
		n.Proc.Pause()
		n.pausedSync = true
		n.syncWaitFor = cn
	}
	n.evalReady()
}

// evalReady recomputes the highest checkpoint this node can validate and
// reports increases to both service controllers.
func (n *Node) evalReady() {
	if n.m.Svc[0] == nil || n.m.recovering {
		return
	}
	r := n.CC.ReadyCkpt()
	if d := n.Dir.ReadyCkpt(); d < r {
		r = d
	}
	// The detection mechanisms must sign off: checkpoint k may only be
	// declared fault-free ValidationSignoffCycles after its edge, which
	// at edge granularity caps readiness at CCN minus the signoff span.
	if s := msg.CN(n.m.P.SignoffIntervals()); s > 0 {
		ccn := n.CC.CCN()
		capCN := msg.CN(1)
		if ccn > s {
			capCN = ccn - s
		}
		if r > capCN {
			r = capCN
		}
	}
	if r <= n.lastReady {
		return
	}
	n.lastReady = r
	for _, home := range n.m.svcHomes {
		rdy := msg.Alloc()
		*rdy = msg.Message{Type: msg.CkptReady, Src: n.ID, Dst: home, CN: r}
		n.m.Net.Send(rdy)
	}
}

// onValidate applies a recovery-point advance: deallocate logs and
// register checkpoints, release committed outputs, lift back-pressure.
func (n *Node) onValidate(rpcn msg.CN) {
	if rpcn <= n.rpcn {
		return
	}
	n.rpcn = rpcn
	n.CC.OnValidate(rpcn)
	n.Dir.OnValidate(rpcn)
	n.Ring.DropBelow(rpcn)
	n.Out.OnValidate(rpcn)
	if n.In != nil {
		n.In.OnValidate(rpcn)
	}
	if n.pausedBP && int(n.CC.CCN()-rpcn) <= n.m.P.MaxOutstandingCheckpoints {
		n.pausedBP = false
		if !n.m.quiescing {
			n.Proc.Resume()
		}
	}
	if n.pausedSync && rpcn >= n.syncWaitFor {
		n.pausedSync = false
		if !n.m.quiescing {
			n.Proc.Resume()
		}
	}
}

// onRecover performs local recovery to checkpoint rpcn (paper §3.6):
// discard transaction state, unroll both CLBs, restore the register
// checkpoint, and report completion after the unroll cost.
func (n *Node) onRecover(rpcn msg.CN) {
	entries := n.CC.Recover(rpcn, n.m.flushToMem)
	entries += n.Dir.Recover(rpcn)
	n.RecoveredEntries += entries

	snap, ok := n.Ring.Get(rpcn)
	if !ok {
		panic(fmt.Sprintf("machine: node %d has no register checkpoint %d", n.ID, rpcn))
	}
	before := n.Proc.Instrs()
	n.Proc.Restore(snap.(proc.Snapshot))
	n.m.InstrsRolledBack += before - n.Proc.Instrs()
	n.Ring.DropAbove(rpcn)
	n.Out.Recover(rpcn)
	if n.In != nil {
		n.In.Recover(rpcn)
	}
	n.rpcn = rpcn
	n.lastReady = rpcn
	n.pausedBP = false

	// Local recovery cost: log unroll (8 cycles per 64-byte entry at
	// 8 bytes/cycle) plus the register restore.
	cost := sim.Time(1000 + 8*entries + int(n.m.P.RegisterCheckpointCycles))
	n.m.Eng.After(cost, func() {
		for _, home := range n.m.svcHomes {
			done := msg.Alloc()
			*done = msg.Message{Type: msg.RecoverDone, Src: n.ID, Dst: home}
			n.m.Net.Send(done)
		}
	})
}

// onRestart resumes execution after a system-wide recovery (unless a
// quiesce in progress keeps the processors paused).
func (n *Node) onRestart() {
	n.pausedSync = false
	if !n.m.quiescing {
		n.Proc.Resume()
	}
}
