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
	// (the point of atomicity).
	selfSnooped bool
	// ownsInFlight is set once a GETX took ownership at its slot while
	// its data is still in flight: later snoops of the block are ours to
	// answer, deferred until the data arrives. stillOwner goes false when
	// a later-slot GETX supersedes us: we still complete our own
	// transaction, but no longer answer new snoops for the block.
	ownsInFlight, stillOwner bool
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
// block). It always concerns the block of the node's transaction.
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

	// txn is the bus transaction in flight, if any: the blocking
	// processor never has more than one.
	txn *txn
	wbs map[uint64]wbBuf
	// defs holds, in slot order, the obligations deferred while txn's
	// data is in flight; it keeps its capacity across transactions.
	defs    []deferred
	txnPool sim.FreeList[txn]

	gen    workload.Generator
	ring   *core.RegRing
	instrs uint64

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
		id:     id,
		sys:    sys,
		l2:     cache.NewArray(sys.cfg.L2Sets, sys.cfg.L2Ways, sys.cfg.BlockBytes),
		clb:    core.NewCLB(sys.cfg.CLBBytes/2, entryBytes),
		mem:    make(map[uint64]uint64),
		memCLB: core.NewCLB(sys.cfg.CLBBytes/2, entryBytes),
		wbs:    make(map[uint64]wbBuf),
		gen:    workload.NewSynthetic(prof, id, sys.cfg.Seed),
		ring:   core.NewRegRing(),
		ccn:    1,
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

// slotProbe is one node's view of a GETS/GETX slot's block, taken by the
// dispatcher before any node snoops the slot.
type slotProbe struct {
	// line is the node's valid L2 frame holding the block, or nil.
	line *cache.Line
	// owns says the node must respond: it holds a valid M/O line, a
	// parked writeback, or ownership acquired at an earlier slot with
	// data still in flight.
	owns bool
}

// probe looks addr up once for a slot: one L2 lookup plus the
// in-flight-ownership and parked-writeback checks.
//
//snvet:alloc-free
func (n *Node) probe(addr uint64) slotProbe {
	l := n.l2.Lookup(addr)
	if l != nil && l.State.IsOwner() {
		return slotProbe{line: l, owns: true}
	}
	if t := n.txn; t != nil && t.addr == addr && t.ownsInFlight && t.stillOwner {
		return slotProbe{line: l, owns: true}
	}
	_, parked := n.wbs[addr]
	return slotProbe{line: l, owns: parked}
}

// snoopWith processes one bus broadcast; every node runs this for every
// slot in the same order — the logical time base of the snooping
// SafetyNet. p is this node's probe of a GETS/GETX slot's block (zero for
// a PUTX), hadOwner the slot's wired-OR snoop response (whether any cache
// owned the block when the slot began) and home the bank that responds
// otherwise; the dispatcher takes all three before any node snoops, so
// exactly one agent supplies data regardless of processing order.
func (n *Node) snoopWith(r *Request, p slotProbe, hadOwner bool, home int) {
	// Checkpoint edges happen at K-slot boundaries of the shared order.
	if iv := n.sys.slotCN(r.Slot); iv > n.ccn {
		for n.ccn < iv {
			n.ccn++
			n.ring.Add(n.ccn, nodeSnap{gen: n.gen.Snapshot(), instrs: n.instrs})
		}
		n.sys.onEdge(n)
	}

	if r.Requestor == n.id {
		n.selfSnoop(r, p.line, hadOwner, home)
		return
	}

	switch r.Kind {
	case BusGETS:
		if p.owns {
			n.respond(r, false, p.line)
		} else if home == n.id && !hadOwner {
			n.sys.sendData(n.id, r.Requestor, r.Addr, n.memData(r.Addr), core.UpdatedCN(n.ccn), r.Slot)
		}
	case BusGETX:
		// Every GETX transfers data (no data-less upgrades: a snooping
		// bus without a snoop-response phase cannot know whether the
		// requestor's copy survived earlier slots).
		if t := n.txn; t != nil && t.addr == r.Addr && t.kind == BusGETS && t.selfSnooped {
			// Our in-flight shared fill is invalidated by this later
			// slot before its data even arrives.
			t.killed = true
		}
		if p.owns {
			n.respond(r, true, p.line)
		} else {
			if home == n.id && !hadOwner {
				n.sys.sendData(n.id, r.Requestor, r.Addr, n.memData(r.Addr), core.UpdatedCN(n.ccn), r.Slot)
			}
			// Everyone else invalidates shared copies.
			if p.line != nil {
				p.line.State = cache.Invalid
			}
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
// the transaction's point of atomicity. l is the requestor's probed L2
// frame for the block, or nil.
func (n *Node) selfSnoop(r *Request, l *cache.Line, hadOwner bool, home int) {
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
	t := n.txn
	if t == nil || t.addr != r.Addr || t.slot != r.Slot {
		return // superseded (recovery discarded it)
	}
	t.selfSnooped = true
	// A store to our own Owned block: we are the responder, so the
	// upgrade completes right here at the point of atomicity. Giving up
	// the O incarnation is an ownership-transfer update-action (its
	// dirty data exists nowhere else), logged before the store applies.
	if t.kind == BusGETX {
		if l != nil && l.State.IsOwner() {
			n.log(core.Entry{
				Addr: t.addr, Tag: core.UpdatedCN(n.ccn),
				OldData: l.Data, OldCN: l.CN, OldState: l.State, Transfer: true,
			})
			n.acquire(t, l.Data, core.UpdatedCN(n.ccn))
			return
		}
	}
	// Ownership (for GETX) moves to us at this slot even though the data
	// is still in flight; we must answer later snoops for this block.
	if t.kind == BusGETX {
		t.ownsInFlight, t.stillOwner = true, true
		// Our stale copy, if any, is superseded by the incoming data.
		if l != nil {
			l.State = cache.Invalid
		}
	}
	// When the requestor is itself the home bank and no cache owns the
	// block, its own memory supplies the data.
	if home == n.id && !hadOwner {
		n.sys.sendData(n.id, n.id, t.addr, n.memData(t.addr), core.UpdatedCN(n.ccn), r.Slot)
	}
}

// respond supplies data for a snooped request we own, transferring
// ownership when exclusive; l is our valid L2 frame for the block, or
// nil. If our own data is still in flight, the obligation is deferred in
// slot order.
func (n *Node) respond(r *Request, exclusive bool, l *cache.Line) {
	if t := n.txn; t != nil && t.addr == r.Addr && t.ownsInFlight {
		n.defs = append(n.defs, deferred{kind: r.Kind, requestor: r.Requestor, slot: r.Slot})
		if exclusive {
			// The requestor owns the block from this slot on; we only
			// owe it the data once ours arrives.
			t.stillOwner = false
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
		n.log(core.Entry{
			Addr: r.Addr, Tag: core.UpdatedCN(n.ccn),
			OldData: data, OldCN: oldCN, OldState: oldState, Transfer: true,
		})
		if l != nil {
			l.State = cache.Invalid
		}
	}
	n.sys.sendData(n.id, r.Requestor, r.Addr, data, core.UpdatedCN(n.ccn), r.Slot)
}

// acquire completes a transaction: install/upgrade the line at the
// transfer CN, apply the pending store under the logging rule, release
// any deferred obligations, and notify the coordinator.
//
//snvet:alloc-free
func (n *Node) acquire(t *txn, data uint64, cn msg.CN) {
	if t.killed {
		// The load is ordered at our slot and returns this data, but a
		// later-slot GETX already invalidated the copy: complete without
		// installing.
		t.cancel.Cancel()
		n.txn = nil
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
		n.storeApply(l, t.storeVal)
	}
	t.cancel.Cancel()
	n.txn = nil
	n.sys.txnDone(n)
	val := l.Data

	// Serve obligations deferred while our data was in flight; with no
	// transaction in flight now, respond serves them at once.
	for _, d := range n.defs {
		r := Request{Kind: d.kind, Addr: t.addr, Requestor: d.requestor, Slot: d.slot}
		n.respond(&r, d.kind == BusGETX, l)
	}
	n.defs = n.defs[:0]
	n.completeTxn(t, val)
}

// completeTxn hands val to t's callback a cycle later; t, no longer the
// node's transaction, is recycled when the callback fires.
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
		n.log(core.Entry{
			Addr: v.Addr, Tag: core.UpdatedCN(n.ccn),
			OldData: v.Data, OldCN: v.CN, OldState: v.State, Transfer: true,
		})
		n.wbs[v.Addr] = wbBuf{data: v.Data, cn: core.UpdatedCN(n.ccn), state: v.State} //snvet:alloc-ok amortized: the buffer's table grows to its peak, then reuses deleted slots
		r := Request{Kind: BusPUTX, Addr: v.Addr, Requestor: n.id, Data: v.Data}
		n.sys.bus.Issue(&r)
	}
	n.l2.Install(v, addr, st, cn, data)
	return n.l2.Lookup(addr)
}

// evictable reports whether a frame may be replaced: nothing is pending
// on its block.
func (n *Node) evictable(l *cache.Line) bool {
	if t := n.txn; t != nil && t.addr == l.Addr {
		return false
	}
	_, wb := n.wbs[l.Addr]
	return !wb
}

// ready returns the highest checkpoint this node agrees to validate: its
// CCN, bounded by the start CN of its transaction in flight.
func (n *Node) ready() msg.CN {
	if t := n.txn; t != nil && t.startCCN < n.ccn {
		return t.startCCN
	}
	return n.ccn
}

// recoverTo rolls the node back to checkpoint rpcn and re-enters the
// lines it keeps into the cleared presence filter.
func (n *Node) recoverTo(rpcn msg.CN) {
	if t := n.txn; t != nil {
		t.cancel.Cancel()
		n.txnPool.Put(t)
		n.txn = nil
	}
	clear(n.wbs)
	n.defs = n.defs[:0]
	n.epoch++
	n.bindEpoch()
	n.inFlight = false
	n.running = false

	n.clb.UnrollCache(n.l2, rpcn, func(addr, data uint64) {
		n.sys.nodes[n.sys.home(addr)].mem[addr] = data
	})
	n.memCLB.Unroll(func(e core.Entry) {
		if e.HadData {
			n.mem[e.Addr] = e.OldData
		}
	})
	n.l2.ForEachValid(func(l *cache.Line) {
		if l.CN > rpcn {
			l.State = cache.Invalid
		} else {
			n.sys.present[l.Addr] |= 1 << n.id
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
	n.log(core.Entry{
		Addr: l.Addr, Tag: core.UpdatedCN(n.ccn),
		OldData: l.Data, OldCN: l.CN, OldState: l.State,
	})
	l.CN = core.UpdatedCN(n.ccn)
	l.Data = val
}

// log records a cache-side update-action under the logging rule. A
// snooping agent cannot refuse an ordered broadcast, so a refusal is a
// modeling error: step throttles the processor well before the CLB fills.
//
//snvet:alloc-free
func (n *Node) log(e core.Entry) {
	if _, refused := n.clb.Log(n.ccn, e); refused {
		panic(fmt.Sprintf("snoop: node %d cache CLB overflow on %#x (throttle failed)", n.id, e.Addr))
	}
}

// issue broadcasts a request for the in-flight reference and blocks
// until data arrives.
//
//snvet:alloc-free
func (n *Node) issue(kind ReqKind) {
	if n.txn != nil {
		panic(fmt.Sprintf("snoop: node %d issued a transaction with one in flight", n.id))
	}
	n.Misses++
	op := &n.op
	t := n.txnPool.Get()
	*t = txn{
		kind: kind, addr: op.Addr, isStore: op.IsStore, storeVal: op.StoreVal,
		startCCN: n.ccn, done: n.cb.txnDone,
	}
	n.txn = t
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
	t := n.txn
	if t == nil || t.addr != addr || !t.selfSnooped {
		return // superseded (a recovery discarded the transaction)
	}
	n.acquire(t, data, cn)
}
