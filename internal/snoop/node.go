package snoop

import (
	"fmt"

	"safetynet/internal/cache"
	"safetynet/internal/core"
	"safetynet/internal/msg"
	"safetynet/internal/protocol"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// txn is one outstanding bus transaction at its requestor. Records are
// recycled once their completion fired; the bus slot, not the record,
// identifies a transaction.
type txn struct {
	kind     ReqKind
	addr     uint64
	isStore  bool
	storeVal uint64
	startCCN msg.CN
	slot     uint64
	// selfSnooped is set once the requestor observed its own broadcast
	// (the point of atomicity); needData says a data response is due.
	selfSnooped bool
	needData    bool
	// killed marks a GETS whose block was invalidated by a GETX ordered
	// after our slot but before our data arrived: the load still
	// completes with the (correctly ordered) data, but the S copy is
	// born dead and must not be installed.
	killed bool
	cancel sim.Canceler
	done   func(uint64)
	// val is the value done receives when the completion fires.
	val uint64
}

// deferred is a response obligation postponed until our own pending data
// arrives (we became owner at an earlier slot but do not yet hold the
// block).
type deferred struct {
	kind      ReqKind
	requestor int
	slot      uint64
}

// wbBuf holds an evicted owned block until its PUTX broadcast is snooped;
// the block stays logically ours (the total order makes this race-free).
type wbBuf struct {
	data  uint64
	cn    msg.CN
	state cache.State
}

// Node is one snooping processor/cache agent plus its slice of memory
// (the home bank for interleaved addresses).
type Node struct {
	id  int
	sys *System

	l2  *cache.Array
	clb *core.CLB
	ccn msg.CN

	mem    map[uint64]uint64
	memCLB *core.CLB

	txns    map[uint64]*txn
	wbs     map[uint64]wbBuf
	defs    map[uint64][]deferred
	txnPool sim.FreeList[txn]

	gen    workload.Generator
	ring   *core.RegRing
	instrs uint64
	// pendingData tracks blocks whose ownership we acquired at an
	// earlier slot while the data is still in flight. The value (whether
	// we own the block) goes false once a later-slot GETX supersedes us:
	// we still complete our own transaction, but we no longer answer new
	// snoops for the block.
	pendingData map[uint64]bool

	running  bool
	inFlight bool
	epoch    int
	// op is the memory reference in flight (meaningful while inFlight).
	op workload.Op
	cb nodeCallbacks
	// finishTxnFn and evictableFn are bound once so that completing a
	// transaction or choosing a victim allocates no closure.
	finishTxnFn func(any)
	evictableFn func(*cache.Line) bool

	// Stats.
	Loads, Stores, Misses, Upgrades uint64
	StoresLogged, TransfersLogged   uint64
	Timeouts                        uint64
}

// nodeCallbacks are a node's processor callbacks for one recovery epoch.
// They are bound once per epoch and each captures that epoch, so an
// event scheduled before a recovery finds itself stale when it fires,
// and scheduling one allocates nothing.
type nodeCallbacks struct {
	// step re-runs the processor after a CLB-throttle pause.
	step func()
	// access performs the in-flight reference once its compute burst
	// elapsed (and retries it while its block is mid-writeback).
	access func()
	// complete retires the in-flight reference; txnDone does so for a
	// reference that needed a bus transaction.
	complete func()
	txnDone  func(uint64)
}

type nodeSnap struct {
	gen    any
	instrs uint64
}

func newNode(id int, sys *System, prof workload.Profile) *Node {
	// A log entry is an 8-byte address tag plus one block of old data.
	entryBytes := 8 + sys.cfg.BlockBytes
	n := &Node{
		id:          id,
		sys:         sys,
		l2:          cache.NewArray(sys.cfg.L2Sets, sys.cfg.L2Ways, sys.cfg.BlockBytes),
		clb:         core.NewCLB(sys.cfg.CLBBytes/2, entryBytes),
		mem:         make(map[uint64]uint64),
		memCLB:      core.NewCLB(sys.cfg.CLBBytes/2, entryBytes),
		txns:        make(map[uint64]*txn),
		wbs:         make(map[uint64]wbBuf),
		defs:        make(map[uint64][]deferred),
		gen:         workload.NewSynthetic(prof, id, sys.cfg.Seed),
		ring:        core.NewRegRing(),
		pendingData: make(map[uint64]bool),
		ccn:         1,
	}
	n.ring.Add(1, nodeSnap{gen: n.gen.Snapshot(), instrs: 0})
	n.finishTxnFn = n.finishTxn
	n.evictableFn = n.evictable
	n.bindEpoch()
	return n
}

// bindEpoch builds the processor callbacks of the current epoch.
func (n *Node) bindEpoch() {
	ep := n.epoch
	complete := func() {
		if n.epoch != ep {
			return
		}
		n.instrs += uint64(n.op.NonMemInstrs) + 1
		n.inFlight = false
		n.step()
	}
	n.cb = nodeCallbacks{
		step: func() {
			if n.epoch == ep {
				n.step()
			}
		},
		access: func() {
			if n.epoch == ep {
				n.access()
			}
		},
		complete: complete,
		txnDone:  func(uint64) { complete() },
	}
}

// CCN returns the node's current checkpoint number (its logical clock:
// snooped requests divided by the checkpoint interval).
func (n *Node) CCN() msg.CN { return n.ccn }

// memData reads the home bank image.
func (n *Node) memData(addr uint64) uint64 {
	if v, ok := n.mem[addr]; ok {
		return v
	}
	return protocol.InitialData(addr)
}

// ownsNow reports whether this agent must respond for addr: a valid M/O
// line, a parked writeback, or ownership acquired at an earlier slot with
// data still in flight.
func (n *Node) ownsNow(addr uint64) bool {
	if n.pendingData[addr] {
		return true
	}
	if _, ok := n.wbs[addr]; ok {
		return true
	}
	if l := n.l2.Lookup(addr); l != nil && l.State.IsOwner() {
		return true
	}
	return false
}

// snoopWith processes one bus broadcast; every node runs this for every
// slot in the same order — the logical time base of the snooping
// SafetyNet. hadOwner is the slot's wired-OR snoop response (whether any
// cache owned the block when the slot began) and home the bank that
// responds otherwise; both are snapshotted by the dispatcher so exactly
// one agent supplies data regardless of processing order.
func (n *Node) snoopWith(r *Request, hadOwner bool, home int) {
	// Checkpoint edges happen at K-slot boundaries of the shared order.
	if iv := msg.CN((r.Slot-1)/n.sys.cfg.CheckpointInterval + 1); iv > n.ccn {
		for n.ccn < iv {
			n.ccn++
			n.ring.Add(n.ccn, nodeSnap{gen: n.gen.Snapshot(), instrs: n.instrs})
		}
		n.sys.onEdge(n)
	}

	mine := r.Requestor == n.id
	if mine {
		n.selfSnoop(r, hadOwner, home)
		return
	}

	switch r.Kind {
	case BusGETS:
		if n.ownsNow(r.Addr) {
			n.respond(r, false)
		} else if home == n.id && !hadOwner {
			n.sys.sendData(n.id, r.Requestor, r.Addr, n.memData(r.Addr), core.UpdatedCN(n.ccn), r.Slot)
		}
	case BusGETX:
		// Every GETX transfers data (no data-less upgrades: a snooping
		// bus without a snoop-response phase cannot know whether the
		// requestor's copy survived earlier slots).
		if t := n.txns[r.Addr]; t != nil && t.kind == BusGETS && t.selfSnooped {
			// Our in-flight shared fill is invalidated by this later
			// slot before its data even arrives.
			t.killed = true
		}
		if n.ownsNow(r.Addr) {
			n.respond(r, true)
		} else {
			if home == n.id && !hadOwner {
				n.sys.sendData(n.id, r.Requestor, r.Addr, n.memData(r.Addr), core.UpdatedCN(n.ccn), r.Slot)
			}
			// Everyone else invalidates shared copies.
			n.l2.Invalidate(r.Addr)
		}
	case BusPUTX:
		if home == n.id {
			n.absorbPUTX(r)
		}
	}
}

// absorbPUTX commits a snooped writeback into the home bank: a
// memory-side update-action, logged for recovery. A full memory-side CLB
// cannot refuse an ordered broadcast, so overflow is a hard modeling
// error; the processors throttle well before it (see step).
func (n *Node) absorbPUTX(r *Request) {
	if !n.memCLB.Append(core.Entry{
		Addr: r.Addr, Tag: core.UpdatedCN(n.ccn),
		OldData: n.memData(r.Addr), MemEntry: true, HadData: true,
		OldOwner: protocol.MemOwner, Transfer: true,
	}) {
		panic("snoop: memory-side CLB overflow")
	}
	n.mem[r.Addr] = r.Data
}

// selfSnoop handles the requestor's observation of its own broadcast —
// the transaction's point of atomicity.
func (n *Node) selfSnoop(r *Request, hadOwner bool, home int) {
	switch r.Kind {
	case BusPUTX:
		// Our writeback is globally ordered: the parked block is now
		// memory's (which may be our own bank).
		delete(n.wbs, r.Addr)
		if home == n.id {
			n.absorbPUTX(r)
		}
		return
	default:
	}
	t := n.txns[r.Addr]
	if t == nil || t.slot != r.Slot {
		return // superseded (recovery discarded it)
	}
	t.selfSnooped = true
	// A store to our own Owned block: we are the responder, so the
	// upgrade completes right here at the point of atomicity. Giving up
	// the O incarnation is an ownership-transfer update-action (its
	// dirty data exists nowhere else), logged before the store applies.
	if t.kind == BusGETX {
		if l := n.l2.Lookup(t.addr); l != nil && l.State.IsOwner() {
			if core.ShouldLog(l.CN, n.ccn) {
				if !n.clb.Append(core.Entry{
					Addr: t.addr, Tag: core.UpdatedCN(n.ccn),
					OldData: l.Data, OldCN: l.CN, OldState: l.State, Transfer: true,
				}) {
					panic("snoop: cache CLB overflow on self-upgrade")
				}
				n.TransfersLogged++
			}
			n.acquire(t, l.Data, core.UpdatedCN(n.ccn))
			return
		}
	}
	t.needData = true
	// Ownership (for GETX) moves to us at this slot even though the data
	// is still in flight; we must answer later snoops for this block.
	if t.kind == BusGETX {
		n.pendingData[t.addr] = true
		// Our stale copy, if any, is superseded by the incoming data.
		n.l2.Invalidate(t.addr)
	}
	// When the requestor is itself the home bank and no cache owns the
	// block, its own memory supplies the data.
	if home == n.id && !hadOwner {
		n.sys.sendData(n.id, n.id, t.addr, n.memData(t.addr), core.UpdatedCN(n.ccn), r.Slot)
	}
}

// respond supplies data for a snooped request we own, transferring
// ownership when exclusive. If our own data is still in flight, the
// obligation is deferred in slot order.
func (n *Node) respond(r *Request, exclusive bool) {
	if _, ok := n.pendingData[r.Addr]; ok {
		n.defs[r.Addr] = append(n.defs[r.Addr], deferred{kind: r.Kind, requestor: r.Requestor, slot: r.Slot})
		if exclusive {
			// The requestor owns the block from this slot on; we only
			// owe it the data once ours arrives.
			n.pendingData[r.Addr] = false
		}
		return
	}
	var data uint64
	var oldCN msg.CN
	var oldState cache.State
	if wb, ok := n.wbs[r.Addr]; ok {
		data, oldCN, oldState = wb.data, wb.cn, wb.state
		if exclusive {
			delete(n.wbs, r.Addr)
		}
	} else {
		l := n.l2.Lookup(r.Addr)
		if l == nil || !l.State.IsOwner() {
			panic(fmt.Sprintf("snoop: node %d responding for %#x it does not own", n.id, r.Addr))
		}
		data, oldCN, oldState = l.Data, l.CN, l.State
		if exclusive {
			// Giving up ownership: log, then invalidate.
		} else if l.State == cache.Modified {
			l.State = cache.Owned
		}
	}
	if exclusive {
		if core.ShouldLog(oldCN, n.ccn) {
			if !n.clb.Append(core.Entry{
				Addr: r.Addr, Tag: core.UpdatedCN(n.ccn),
				OldData: data, OldCN: oldCN, OldState: oldState, Transfer: true,
			}) {
				panic("snoop: cache CLB overflow on transfer (throttle failed)")
			}
			n.TransfersLogged++
		}
		n.l2.Invalidate(r.Addr)
	}
	n.sys.sendData(n.id, r.Requestor, r.Addr, data, core.UpdatedCN(n.ccn), r.Slot)
}

// acquire completes a transaction: install/upgrade the line at the
// transfer CN, apply the pending store under the logging rule, release
// any deferred obligations, and notify the coordinator.
//
//snvet:alloc-free
func (n *Node) acquire(t *txn, data uint64, cn msg.CN) {
	delete(n.pendingData, t.addr)
	if t.killed {
		// The load is ordered at our slot and returns this data, but a
		// later-slot GETX already invalidated the copy: complete without
		// installing.
		t.cancel.Cancel()
		delete(n.txns, t.addr)
		n.sys.txnDone(n)
		n.completeTxn(t, data)
		return
	}
	st := cache.Shared
	if t.kind == BusGETX {
		st = cache.Modified
	}
	l := n.installLine(t.addr, st, cn, data)
	if t.isStore {
		if core.ShouldLog(l.CN, n.ccn) {
			if !n.clb.Append(core.Entry{
				Addr: l.Addr, Tag: core.UpdatedCN(n.ccn),
				OldData: l.Data, OldCN: l.CN, OldState: l.State,
			}) {
				panic("snoop: cache CLB overflow on store (throttle failed)")
			}
			n.StoresLogged++
		}
		l.CN = core.UpdatedCN(n.ccn)
		l.Data = t.storeVal
	}
	t.cancel.Cancel()
	delete(n.txns, t.addr)
	n.sys.txnDone(n)
	val := l.Data

	// Serve obligations deferred while our data was in flight.
	if pend := n.defs[t.addr]; len(pend) > 0 {
		delete(n.defs, t.addr)
		for _, d := range pend {
			r := Request{Kind: d.kind, Addr: t.addr, Requestor: d.requestor, Slot: d.slot}
			n.respond(&r, d.kind == BusGETX)
		}
	}
	n.completeTxn(t, val)
}

// completeTxn hands val to t's callback a cycle later; t, already out of
// the transaction table, is recycled when the callback fires.
//
//snvet:alloc-free
func (n *Node) completeTxn(t *txn, val uint64) {
	if t.done == nil {
		n.txnPool.Put(t)
		return
	}
	t.val = val
	n.sys.eng.AfterArg(1, n.finishTxnFn, t)
}

// finishTxn fires a completed transaction's callback.
//
//snvet:alloc-free
func (n *Node) finishTxn(a any) {
	t := a.(*txn)
	done, val := t.done, t.val
	n.txnPool.Put(t)
	done(val)
}

// installLine places a block, evicting an owned victim through a PUTX.
//
//snvet:alloc-free
func (n *Node) installLine(addr uint64, st cache.State, cn msg.CN, data uint64) *cache.Line {
	if l := n.l2.Lookup(addr); l != nil {
		l.State = st
		l.CN = cn
		n.l2.Touch(l)
		return l
	}
	v := n.l2.Victim(addr, n.evictableFn)
	if v == nil {
		panic(fmt.Sprintf("snoop: node %d no evictable frame for %#x", n.id, addr))
	}
	if v.State.IsOwner() {
		// Log the transfer at eviction; ownership parks in the buffer
		// until the PUTX broadcast orders it.
		if core.ShouldLog(v.CN, n.ccn) {
			if !n.clb.Append(core.Entry{
				Addr: v.Addr, Tag: core.UpdatedCN(n.ccn),
				OldData: v.Data, OldCN: v.CN, OldState: v.State, Transfer: true,
			}) {
				panic("snoop: cache CLB overflow on eviction (throttle failed)")
			}
			n.TransfersLogged++
		}
		n.wbs[v.Addr] = wbBuf{data: v.Data, cn: core.UpdatedCN(n.ccn), state: v.State}
		r := Request{Kind: BusPUTX, Addr: v.Addr, Requestor: n.id, Data: v.Data}
		n.sys.bus.Issue(&r)
	}
	n.l2.Install(v, addr, st, cn, data)
	return n.l2.Lookup(addr)
}

// evictable reports whether a frame may be replaced: nothing is pending
// on its block.
func (n *Node) evictable(l *cache.Line) bool {
	_, wb := n.wbs[l.Addr]
	_, pend := n.pendingData[l.Addr]
	return n.txns[l.Addr] == nil && !wb && !pend
}

// ready returns the highest checkpoint this node agrees to validate.
func (n *Node) ready() msg.CN {
	r := n.ccn
	for _, t := range n.txns {
		if t.startCCN < r {
			r = t.startCCN
		}
	}
	return r
}

// recoverTo rolls the node back to checkpoint rpcn.
func (n *Node) recoverTo(rpcn msg.CN) {
	for _, t := range n.txns {
		t.cancel.Cancel()
		n.txnPool.Put(t)
	}
	clear(n.txns)
	clear(n.wbs)
	clear(n.defs)
	clear(n.pendingData)
	n.epoch++
	n.bindEpoch()
	n.inFlight = false
	n.running = false

	n.clb.Unroll(func(e core.Entry) {
		if l := n.l2.Lookup(e.Addr); l != nil {
			l.Data, l.CN, l.State = e.OldData, e.OldCN, e.OldState
			return
		}
		v := n.l2.Victim(e.Addr, func(l *cache.Line) bool { return !l.State.IsOwner() })
		if v == nil {
			v = n.l2.Victim(e.Addr, func(l *cache.Line) bool { return l.CN > rpcn })
		}
		if v == nil {
			v = n.l2.Victim(e.Addr, nil)
			if v.State.IsOwner() && v.CN <= rpcn {
				home := n.sys.nodes[n.sys.home(v.Addr)]
				home.mem[v.Addr] = v.Data
			}
		}
		n.l2.Install(v, e.Addr, e.OldState, e.OldCN, e.OldData)
	})
	n.memCLB.Unroll(func(e core.Entry) {
		if e.HadData {
			n.mem[e.Addr] = e.OldData
		}
	})
	n.l2.ForEachValid(func(l *cache.Line) {
		if l.CN > rpcn {
			l.State = cache.Invalid
		}
	})
	snap, ok := n.ring.Get(rpcn)
	if !ok {
		panic(fmt.Sprintf("snoop: node %d missing register checkpoint %d", n.id, rpcn))
	}
	s := snap.(nodeSnap)
	n.gen.Restore(s.gen)
	n.sys.instrsRolledBack += n.instrs - s.instrs
	n.instrs = s.instrs
	n.ring.DropAbove(rpcn)
	n.ccn = rpcn
}

// ---------------------------------------------------------------------
// Processor
// ---------------------------------------------------------------------

// step runs the node's blocking processor: a non-memory burst, then one
// reference.
//
//snvet:alloc-free
func (n *Node) step() {
	if !n.running || n.inFlight {
		return
	}
	// Throttle ahead of CLB exhaustion: snooping agents cannot refuse an
	// ordered broadcast, so the processor stops creating update-actions
	// while the log is nearly full (the paper's "throttle requests from
	// the CPU", adapted to the ordered substrate).
	if n.clb.Len() > n.clb.CapEntries()*9/10 {
		n.sys.eng.After(200, n.cb.step)
		return
	}
	n.inFlight = true
	n.op = n.gen.Next()
	n.sys.eng.After(sim.Time(n.op.NonMemInstrs/4), n.cb.access)
}

// access performs the in-flight reference.
//
//snvet:alloc-free
func (n *Node) access() {
	op := &n.op
	if op.IsIO {
		n.sys.eng.After(1, n.cb.complete)
		return
	}
	if _, parked := n.wbs[op.Addr]; parked {
		// The block is mid-writeback; retry once the PUTX broadcast
		// orders it (nobody would respond to our request before then).
		n.sys.eng.After(100, n.cb.access)
		return
	}
	l := n.l2.Lookup(op.Addr)
	if !op.IsStore {
		n.Loads++
		if l != nil {
			n.l2.Touch(l)
			n.sys.eng.After(2, n.cb.complete)
			return
		}
		n.issue(BusGETS)
		return
	}
	n.Stores++
	if l != nil && l.State == cache.Modified {
		n.l2.Touch(l)
		n.storeApply(l, op.StoreVal)
		n.sys.eng.After(2, n.cb.complete)
		return
	}
	if l != nil {
		n.Upgrades++
	}
	n.issue(BusGETX)
}

// storeApply performs a store under the SafetyNet logging rule.
//
//snvet:alloc-free
func (n *Node) storeApply(l *cache.Line, val uint64) {
	if core.ShouldLog(l.CN, n.ccn) {
		if !n.clb.Append(core.Entry{
			Addr: l.Addr, Tag: core.UpdatedCN(n.ccn),
			OldData: l.Data, OldCN: l.CN, OldState: l.State,
		}) {
			panic("snoop: cache CLB overflow (throttle failed)")
		}
		n.StoresLogged++
	}
	l.CN = core.UpdatedCN(n.ccn)
	l.Data = val
}

// issue broadcasts a request for the in-flight reference and blocks
// until data arrives.
//
//snvet:alloc-free
func (n *Node) issue(kind ReqKind) {
	n.Misses++
	op := &n.op
	t := n.txnPool.Get()
	*t = txn{
		kind: kind, addr: op.Addr, isStore: op.IsStore, storeVal: op.StoreVal,
		startCCN: n.ccn, done: n.cb.txnDone,
	}
	n.txns[op.Addr] = t
	r := Request{Kind: kind, Addr: op.Addr, Requestor: n.id}
	t.slot = n.sys.bus.Issue(&r)
	t.cancel = n.sys.eng.ScheduleCancelableArg(n.sys.eng.Now()+n.sys.cfg.TimeoutCycles, txnTimeout, n)
}

// txnTimeout fires when a transaction went unanswered: a fault ate its
// data. The timeout is canceled before its record is recycled.
func txnTimeout(a any) {
	n := a.(*Node)
	n.Timeouts++
	n.sys.Recover()
}

// dataArrived completes an outstanding transaction.
func (n *Node) dataArrived(addr, data uint64, cn msg.CN) {
	t := n.txns[addr]
	if t == nil || !t.selfSnooped {
		return // superseded (a recovery discarded the transaction)
	}
	n.acquire(t, data, cn)
}
