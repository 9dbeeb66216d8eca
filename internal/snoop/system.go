// Event order: every bus transaction is a globally ordered event — the
// shared bus is the serialization point the protocol depends on — so the
// snooping system never sets an event owner. All of its events are global
// (owner -1) and fire in FIFO order within a cycle.

package snoop

import (
	"fmt"
	"math/bits"
	"slices"

	"safetynet/internal/backend"
	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// Config sizes the snooping system.
type Config struct {
	Nodes int
	// BlockBytes is the coherence block size; the home-bank interleave
	// and the cache geometry both derive from it.
	BlockBytes     int
	L2Sets, L2Ways int
	CLBBytes       int
	// CheckpointInterval is the logical-time checkpoint period in bus
	// slots (the §2.3 "every K logical cycles").
	CheckpointInterval uint64
	MaxOutstanding     int
	BusOccupancy       sim.Time
	DataLatency        sim.Time
	TimeoutCycles      sim.Time
	WatchdogCycles     sim.Time
	Seed               uint64
}

// DefaultConfig returns an 8-node snooping system.
func DefaultConfig() Config {
	return Config{
		Nodes:      8,
		BlockBytes: 64,
		L2Sets:     64, L2Ways: 4,
		CLBBytes:           256 << 10,
		CheckpointInterval: 128,
		MaxOutstanding:     4,
		BusOccupancy:       12,
		DataLatency:        40,
		TimeoutCycles:      8_000,
		WatchdogCycles:     120_000,
	}
}

// FromParams derives a snooping-system configuration from the shared
// target-system parameters, so the harness and facade can aim one
// config.Params at either backend. Geometry, logging capacity, and
// detection latencies carry over directly; the checkpoint interval is
// re-expressed in bus slots — logical time on the ordered interconnect
// advances one unit per broadcast, and the blocking processors keep the
// address bus near saturation (one slot per BusOccupancy cycles), so the
// wall-clock checkpoint cadence lands near the configured interval.
func FromParams(p config.Params) Config {
	c := DefaultConfig()
	c.Nodes = p.NumNodes
	c.BlockBytes = p.BlockBytes
	c.L2Sets = p.L2Sets()
	c.L2Ways = p.L2Ways
	c.CLBBytes = p.CLBBytes
	c.MaxOutstanding = p.MaxOutstandingCheckpoints
	c.TimeoutCycles = sim.Time(p.RequestTimeoutCycles)
	c.WatchdogCycles = sim.Time(p.ValidationWatchdogCycles)
	c.Seed = p.Seed
	if iv := p.CheckpointIntervalCycles / uint64(c.BusOccupancy); iv > 0 {
		c.CheckpointInterval = iv
	} else {
		c.CheckpointInterval = 1
	}
	return c
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("snoop: need at least 2 nodes")
	case c.Nodes > 64:
		// The presence filter keeps one bit per node in a uint64 mask.
		return fmt.Errorf("snoop: %d nodes exceed the 64-node presence-mask limit", c.Nodes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("snoop: block size must be a positive power of two, got %d", c.BlockBytes)
	case c.L2Sets <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("snoop: bad cache geometry")
	case c.CLBBytes < 2*(8+c.BlockBytes):
		// Each of the two CLB halves (cache-side and memory-side) must
		// hold at least one 8-byte-tag + one-block entry.
		return fmt.Errorf("snoop: CLB of %d bytes cannot hold one entry per half at %d-byte blocks",
			c.CLBBytes, c.BlockBytes)
	case c.CheckpointInterval == 0:
		return fmt.Errorf("snoop: zero checkpoint interval")
	case c.MaxOutstanding < 1:
		return fmt.Errorf("snoop: need outstanding checkpoints")
	case c.BusOccupancy == 0 || c.DataLatency == 0:
		return fmt.Errorf("snoop: zero latencies")
	case c.TimeoutCycles == 0 || c.WatchdogCycles <= c.TimeoutCycles:
		return fmt.Errorf("snoop: detection latencies inconsistent")
	}
	return nil
}

// System is a complete snooping SafetyNet machine.
type System struct {
	cfg   Config
	eng   *sim.Engine
	bus   *Bus
	nodes []*Node
	// probes holds each node's probe of the slot being dispatched; only
	// the entries of nodes in the slot's presence mask are meaningful.
	probes []slotProbe
	// present is the snoop presence filter: per block, a mask with bit i
	// set if node i may hold the block — a valid L2 line, a parked
	// writeback, or a transaction whose slot has been ordered. It is a
	// superset, never exact:
	// dispatch sets the requestor's bit and clears only the bits its
	// probes prove stale, and recovery rebuilds it from the surviving
	// lines. A stale bit costs one probe; a missing bit would skip a
	// holder, which presenceErrors checks for.
	present map[uint64]uint64
	// dataMsgs recycles data-network messages.
	dataMsgs sim.FreeList[dataMsg]

	rpcn        msg.CN
	lastAdvance sim.Time
	recovering  bool
	quiescing   bool
	dataEpoch   int

	faults           dataFaults
	dataSent         uint64
	dropped          uint64
	corrupted        uint64
	duplicated       uint64
	instrsRolledBack uint64

	// Recoveries counts completed recoveries.
	Recoveries int
	// Validations counts recovery-point advances.
	Validations uint64

	// obs holds the registered backend-neutral run observers.
	obs backend.Observers
}

// Observe registers a backend-neutral run observer.
func (s *System) Observe(o *backend.Observer) { s.obs = append(s.obs, o) }

// dataFaults holds the armed fault events of the unordered data network.
// One-shot events fire on the first data message sent at or after their
// scheduled cycle; slices stay nil on fault-free runs so the send path
// pays only a couple of nil checks.
type dataFaults struct {
	dropOnce      []sim.Time
	corruptOnce   []sim.Time
	duplicateOnce []sim.Time
	dropEvery     []periodicDrop
}

// periodicDrop is one armed DropEvery schedule; schedules layer — each
// arm installs an independent one, as the directory network's drop rules
// do.
type periodicDrop struct {
	next, period sim.Time
}

// takeOne consumes and reports an armed one-shot whose cycle has arrived.
func takeOne(armed *[]sim.Time, now sim.Time) bool {
	for i, at := range *armed {
		if now >= at {
			*armed = append((*armed)[:i], (*armed)[i+1:]...)
			return true
		}
	}
	return false
}

// New builds the system with every processor running the given workload.
func New(cfg Config, prof workload.Profile) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, eng: sim.NewEngine(), rpcn: 1, probes: make([]slotProbe, cfg.Nodes),
		present: make(map[uint64]uint64)}
	s.bus = NewBus(s.eng, cfg.BusOccupancy)
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, newNode(i, s, prof))
	}
	// A single fan-out snooper: snapshot whether any cache owns the
	// block before anyone processes the slot, so exactly one agent
	// (owner or home bank) responds regardless of node iteration order.
	s.bus.Attach(func(r *Request) { s.dispatch(r) })
	s.armWatchdog()
	return s
}

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// RPCN returns the recovery point.
func (s *System) RPCN() msg.CN { return s.rpcn }

// Nodes returns the node list (for tests).
func (s *System) Nodes() []*Node { return s.nodes }

// home interleaves block homes across the memory banks at the configured
// block granularity.
func (s *System) home(addr uint64) int {
	return int((addr / uint64(s.cfg.BlockBytes)) % uint64(s.cfg.Nodes))
}

// slotCN returns the checkpoint interval that contains a bus slot: logical
// time advances one checkpoint every CheckpointInterval slots.
func (s *System) slotCN(slot uint64) msg.CN {
	return msg.CN((slot-1)/s.cfg.CheckpointInterval + 1)
}

// dispatch delivers one bus slot. A GETS or GETX slot first probes, once
// each, the nodes the presence filter names plus the requestor (an L2
// lookup plus the in-flight-ownership and parked-writeback checks), and
// every later use of the block in the slot reads those probes: the
// wired-OR snoop response hadOwner, each node's respond decision, and
// the GETX invalidation of shared copies. The probes stay exact because
// within one slot only node n's own snoop changes node n's L2, writeback
// buffer or transaction: data replies are scheduled through the engine,
// not delivered inline, and tryValidate, which edges and completions run
// inline, touches only logs, register checkpoints and the recovery
// point. A probed node that holds nothing on the block leaves the mask.
//
// A node outside the mask holds no line, parked writeback or ordered
// transaction on the block, so its probe would be empty and its snoop
// does nothing unless it is the home bank. A slot that crosses a
// checkpoint edge still visits every node, because counting slots is
// each node's logical clock (§2.3); all nodes share one CCN, so one test
// finds those slots. Any other GETS/GETX slot visits only the masked
// nodes, the requestor and the home bank, in node order. A PUTX slot
// takes no probe and visits every node.
//
//snvet:alloc-free
func (s *System) dispatch(r *Request) {
	home := s.home(r.Addr)
	if r.Kind == BusPUTX {
		for _, n := range s.nodes {
			n.snoopWith(r, slotProbe{}, false, home)
		}
		return
	}
	was := s.present[r.Addr]
	mask := was | 1<<r.Requestor
	kept := mask
	hadOwner := false
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		n := s.nodes[i]
		p := n.probe(r.Addr)
		s.probes[i] = p
		hadOwner = hadOwner || p.owns
		if p.line == nil && !p.owns && (n.txn == nil || n.txn.addr != r.Addr) {
			kept &^= 1 << i
		}
	}
	if kept != was {
		s.present[r.Addr] = kept //snvet:alloc-ok amortized filter growth, one entry per block ever snooped
	}
	visit := mask | 1<<home
	if s.slotCN(r.Slot) > s.nodes[0].ccn {
		visit = 1<<len(s.nodes) - 1
	}
	for m := visit; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		var p slotProbe
		if mask&(1<<i) != 0 {
			p = s.probes[i]
		}
		s.nodes[i].snoopWith(r, p, hadOwner, home)
	}
}

// dataMsg is the recycled in-flight state of one data-network message;
// the System's free list plus the engine's AfterArg path keeps the
// steady-state send free of per-message allocations.
type dataMsg struct {
	sys     *System
	to      int
	addr    uint64
	data    uint64
	cn      msg.CN
	epoch   int
	corrupt bool
}

// deliverDataArg is the long-lived dispatch function handed to AfterArg.
func deliverDataArg(a any) { a.(*dataMsg).deliver() }

func (d *dataMsg) deliver() {
	s := d.sys
	if d.epoch == s.dataEpoch { // otherwise discarded by a recovery
		if d.corrupt {
			// The endpoint's error-detecting code discovers the damage on
			// arrival and reports the fault; the message is unusable, so
			// the requestor's loss converts into a recovery.
			s.Recover()
		} else {
			s.nodes[d.to].dataArrived(d.addr, d.data, d.cn)
		}
	}
	s.dataMsgs.Put(d)
}

// sendData models the unordered point-to-point data network; this is
// where the message-level fault events (dropped, corrupted, duplicated
// data) live.
//
//snvet:alloc-free
func (s *System) sendData(from, to int, addr, data uint64, cn msg.CN, slot uint64) {
	now := s.eng.Now()
	f := &s.faults
	// Count the send before the fault checks: a dropped message was sent
	// and then lost, matching the directory network's accounting so
	// cross-backend traffic/loss comparisons line up.
	s.dataSent++
	if takeOne(&f.dropOnce, now) {
		s.dropped++
		s.obs.FaultFired(uint64(now), fault.KindDropOnce)
		return
	}
	for i := range f.dropEvery {
		if p := &f.dropEvery[i]; now >= p.next {
			p.next = now + p.period
			s.dropped++
			s.obs.FaultFired(uint64(now), fault.KindDropEvery)
			return
		}
	}
	d := s.dataMsgs.Get()
	*d = dataMsg{sys: s, to: to, addr: addr, data: data, cn: cn, epoch: s.dataEpoch}
	if takeOne(&f.corruptOnce, now) {
		// Counted at send like drops, so the loss stays accounted even if
		// a recovery already in flight discards the damaged message.
		s.corrupted++
		d.corrupt = true
		d.data ^= 0xbad_c0de_bad_c0de
		s.obs.FaultFired(uint64(now), fault.KindCorruptOnce)
	}
	s.eng.AfterArg(s.cfg.DataLatency, deliverDataArg, d)
	if takeOne(&f.duplicateOnce, now) {
		dup := s.dataMsgs.Get()
		*dup = *d
		s.duplicated++
		s.dataSent++
		s.obs.FaultFired(uint64(now), fault.KindDuplicateOnce)
		// The duplicate trails its original by one cycle; transaction
		// matching at the endpoint must absorb it.
		s.eng.AfterArg(s.cfg.DataLatency+1, deliverDataArg, dup)
	}
}

// InjectDropOnce loses the first data message sent at or after at.
func (s *System) InjectDropOnce(at sim.Time) {
	s.faults.dropOnce = append(s.faults.dropOnce, at)
}

// InjectDropEvery loses one data message per period, starting at start.
// Repeated calls layer independent schedules.
func (s *System) InjectDropEvery(start, period sim.Time) {
	s.faults.dropEvery = append(s.faults.dropEvery, periodicDrop{next: start, period: period})
}

// InjectCorruptOnce damages one data message sent at or after at; the
// endpoint's error-detecting code discovers it on arrival.
func (s *System) InjectCorruptOnce(at sim.Time) {
	s.faults.corruptOnce = append(s.faults.corruptOnce, at)
}

// InjectDuplicateOnce delivers one data message twice at or after at.
func (s *System) InjectDuplicateOnce(at sim.Time) {
	s.faults.duplicateOnce = append(s.faults.duplicateOnce, at)
}

// Dropped returns injected losses so far.
func (s *System) Dropped() uint64 { return s.dropped }

// Corrupted returns injected corruptions detected so far.
func (s *System) Corrupted() uint64 { return s.corrupted }

// Duplicated returns injected duplications so far.
func (s *System) Duplicated() uint64 { return s.duplicated }

// Start launches the processors.
func (s *System) Start() {
	for _, n := range s.nodes {
		n.running = true
		n.step()
	}
}

// Run advances the simulation.
func (s *System) Run(until sim.Time) sim.Time { return s.eng.Run(until) }

// Now returns the current simulation time.
func (s *System) Now() sim.Time { return s.eng.Now() }

// TotalInstrs sums durable retired instructions.
func (s *System) TotalInstrs() uint64 {
	var t uint64
	for _, n := range s.nodes {
		t += n.instrs
	}
	return t
}

// CrashInfo reports the crash state; the snooping system is always
// SafetyNet-protected, so it never crashes.
func (s *System) CrashInfo() (bool, string) { return false, "" }

// FaultTarget returns the unordered data network fault events arm on;
// events needing the routed torus (misroutes, switch kills) are rejected
// at arm time with fault.ErrUnsupported.
func (s *System) FaultTarget() fault.Target { return fault.Target{Data: s} }

// Counters returns the cumulative protocol-neutral statistics.
func (s *System) Counters() backend.Counters {
	c := backend.Counters{
		Instrs:           s.TotalInstrs(),
		InstrsRolledBack: s.instrsRolledBack,
		Recoveries:       s.Recoveries,
		MessagesSent:     s.bus.Broadcasts + s.dataSent,
		MessagesDropped:  s.dropped + s.corrupted,
	}
	for _, n := range s.nodes {
		c.StoresLogged += n.clb.Appends() - n.clb.TransferAppends()
		c.TransfersLogged += n.clb.TransferAppends()
	}
	return c
}

// onEdge re-evaluates validation whenever logical time advances.
func (s *System) onEdge(*Node) { s.tryValidate() }

// txnDone re-evaluates validation when a transaction completes.
func (s *System) txnDone(*Node) { s.tryValidate() }

// tryValidate advances the recovery point to the minimum checkpoint every
// node is ready to validate. Coordination is modeled as instantaneous (a
// real system exchanges messages; the snooping variant focuses on the
// logical-time base). It never restarts a processor: Start, Resume and
// recovery do, and no processor pauses for the outstanding-checkpoint
// bound (MaxOutstanding is not enforced on this backend).
func (s *System) tryValidate() {
	if s.recovering {
		return
	}
	min := s.nodes[0].ready()
	for _, n := range s.nodes[1:] {
		if r := n.ready(); r < min {
			min = r
		}
	}
	if min <= s.rpcn {
		return
	}
	s.rpcn = min
	s.Validations++
	s.lastAdvance = s.eng.Now()
	s.obs.CheckpointAdvanced(uint64(s.lastAdvance), uint32(min))
	for _, n := range s.nodes {
		n.clb.DeallocateThrough(min)
		n.memCLB.DeallocateThrough(min)
		n.ring.DropBelow(min)
	}
}

func (s *System) armWatchdog() {
	s.eng.After(s.cfg.WatchdogCycles/2, func() {
		if !s.recovering && s.eng.Now()-s.lastAdvance > s.cfg.WatchdogCycles {
			s.Recover()
		}
		s.armWatchdog()
	})
}

// Recover rolls the whole system back to the recovery point: discard the
// bus queue and in-flight data, unroll every CLB, restore registers, and
// resume (paper §3.6, on the snooping substrate).
func (s *System) Recover() {
	if s.recovering {
		return
	}
	s.recovering = true
	s.bus.BumpEpoch()
	s.dataEpoch++
	rpcn := s.rpcn
	started := s.eng.Now()
	s.obs.RecoveryStarted(uint64(started), "fault detected on the snooping substrate")
	// Modeled drain + per-node unroll + restart barrier.
	s.eng.After(2_000, func() {
		// Recovery discards every transaction and parked writeback, so
		// the presence filter is rebuilt from the lines each node keeps.
		clear(s.present)
		for _, n := range s.nodes {
			n.recoverTo(rpcn)
		}
		s.bus.ResetSlots(rpcn, s.cfg.CheckpointInterval)
		s.eng.After(1_000, func() {
			s.recovering = false
			s.lastAdvance = s.eng.Now()
			s.Recoveries++
			s.obs.RecoveryCompleted(uint64(s.lastAdvance), uint32(rpcn),
				uint64(s.lastAdvance-started))
			if s.quiescing {
				return // the quiesce in progress keeps the processors paused
			}
			for _, n := range s.nodes {
				n.running = true
				n.step()
			}
		})
	})
}

// ---------------------------------------------------------------------
// Verification helpers
// ---------------------------------------------------------------------

// ArchValues returns the per-address architectural value: the cache
// owner's copy, else the home bank's image. Call at quiescence.
func (s *System) ArchValues() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	touched := make(map[uint64]bool)
	for _, n := range s.nodes {
		n.l2.ForEachValid(func(l *cache.Line) { touched[l.Addr] = true })
		for a := range n.wbs {
			touched[a] = true
		}
		for a := range n.mem {
			touched[a] = true
		}
	}
	for a := range touched {
		out[a] = s.valueOf(a)
	}
	return out
}

func (s *System) valueOf(addr uint64) uint64 {
	for _, n := range s.nodes {
		if wb, ok := n.wbs[addr]; ok {
			return wb.data
		}
		if l := n.l2.Lookup(addr); l != nil && l.State.IsOwner() {
			return l.Data
		}
	}
	return s.nodes[s.home(addr)].memData(addr)
}

// CheckCoherence verifies single-owner and value-coherence invariants at
// quiescence, and that the presence filter names every holder.
func (s *System) CheckCoherence() []string {
	var errs []string
	owners := map[uint64][]int{}
	for _, n := range s.nodes {
		n.l2.ForEachValid(func(l *cache.Line) {
			if l.State.IsOwner() {
				owners[l.Addr] = append(owners[l.Addr], n.id)
			}
		})
		for a := range n.wbs {
			owners[a] = append(owners[a], n.id)
		}
	}
	addrs := make([]uint64, 0, len(owners))
	for a := range owners {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		if list := owners[addr]; len(list) > 1 {
			errs = append(errs, fmt.Sprintf("block %#x owned by %v", addr, list))
		}
	}
	for _, n := range s.nodes {
		n.l2.ForEachValid(func(l *cache.Line) {
			if l.State == cache.Shared {
				if v := s.valueOf(l.Addr); v != l.Data {
					errs = append(errs, fmt.Sprintf("block %#x: node %d S copy %#x != owner %#x",
						l.Addr, n.id, l.Data, v))
				}
			}
		})
	}
	return append(errs, s.presenceErrors()...)
}

// presenceErrors lists every node that holds a block without its bit in
// the presence filter: a valid L2 line, a parked writeback, or a
// transaction whose slot has been ordered. A transaction still waiting
// for its slot needs no bit: no snoop reads it before it snoops its own
// slot, which sets the bit. The invariant holds at every cycle, not only
// at quiescence.
func (s *System) presenceErrors() []string {
	var errs []string
	check := func(n *Node, addr uint64, what string) {
		if s.present[addr]&(1<<n.id) == 0 {
			errs = append(errs, fmt.Sprintf("block %#x: node %d holds %s outside the presence filter (mask %#x)",
				addr, n.id, what, s.present[addr]))
		}
	}
	for _, n := range s.nodes {
		n.l2.ForEachValid(func(l *cache.Line) { check(n, l.Addr, "an L2 line") })
		if t := n.txn; t != nil && t.selfSnooped {
			check(n, t.addr, "an ordered transaction")
		}
		parked := make([]uint64, 0, len(n.wbs))
		for a := range n.wbs {
			parked = append(parked, a)
		}
		slices.Sort(parked)
		for _, a := range parked {
			check(n, a, "a parked writeback")
		}
	}
	return errs
}

// Quiesce pauses processors and drains transactions. The paused state is
// sticky — validation advances and recoveries completing mid-quiesce do
// not restart the processors — until Resume.
func (s *System) Quiesce(budget sim.Time) bool {
	s.quiescing = true
	for _, n := range s.nodes {
		n.running = false
	}
	deadline := s.eng.Now() + budget
	for s.eng.Now() < deadline {
		idle := !s.recovering
		for _, n := range s.nodes {
			if n.txn != nil || len(n.wbs) != 0 {
				idle = false
			}
		}
		if idle {
			return true
		}
		s.eng.Run(s.eng.Now() + 500)
	}
	return false
}

// Resume restarts the processors after a Quiesce.
func (s *System) Resume() {
	s.quiescing = false
	for _, n := range s.nodes {
		if !n.running {
			n.running = true
			n.step()
		}
	}
}
