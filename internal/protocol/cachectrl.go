package protocol

import (
	"fmt"

	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/sim"
)

// CacheStats aggregates cache-controller activity.
type CacheStats struct {
	Loads, Stores  uint64
	L1Hits, L2Hits uint64
	Misses         uint64
	Upgrades       uint64
	// RequestsIssued counts GETS/GETX/PUTX injections, including retries
	// (Figure 6: "all coherence requests").
	RequestsIssued uint64
	Writebacks     uint64
	NacksReceived  uint64
	Retries        uint64
	Timeouts       uint64
	// CLBStallCycles is time spent throttled behind a full CLB (the
	// back-pressure that degrades undersized CLBs, Figure 8).
	CLBStallCycles uint64
}

// mshr tracks one outstanding transaction (the processor model is
// blocking, so a node has at most one, plus any writebacks in flight).
// Records are recycled, so anything that refers to a transaction after
// a delay names it by txn id.
type mshr struct {
	addr     uint64
	txn      uint64
	isStore  bool
	storeVal uint64
	startCCN msg.CN

	dataReceived bool
	dataVal      uint64
	dataCN       msg.CN
	acksKnown    bool
	acksNeeded   int
	acksGot      int
	// ackFrom records which nodes already acked this transaction, so a
	// duplicated InvAck (a §5.1 protocol-engine soft fault) is absorbed
	// by transaction matching instead of overshooting the ack count.
	ackFrom  uint64
	lostData bool

	doneLoad  func(uint64)
	doneStore func()

	cancelTimeout sim.Canceler
}

// wbEntry is a writeback buffer slot: the evicted owned block stays
// logically owned by this node until the home accepts the PUTX or a
// forwarded request takes ownership out of the buffer.
type wbEntry struct {
	addr          uint64
	data          uint64
	cn            msg.CN // transfer CN assigned at eviction
	state         cache.State
	hasOwnership  bool
	txn           uint64
	startCCN      msg.CN
	cancelTimeout sim.Canceler
	// onResolve holds accesses to the block that wait for the writeback
	// to resolve; it keeps its capacity across recycling.
	onResolve []deferred
}

// deferredKind names the action a deferred record performs.
type deferredKind uint8

const (
	// deferLoadHit hands a hit's value to the load's callback.
	deferLoadHit deferredKind = iota
	// deferLoad replays a load that waited on a writeback.
	deferLoad
	// deferStore retries a store (after a full-CLB stall, or once a
	// writeback it waited on resolves) if no recovery intervened.
	deferStore
	// deferRequest resends a nacked request if its MSHR is still live.
	deferRequest
	// deferPUTX resends a nacked writeback if its entry is still live.
	deferPUTX
	// deferGETX retries completing a GETX stalled on a full CLB.
	deferGETX
)

// deferred is a controller action postponed to a later cycle. It carries
// the operands a closure would have captured; scheduled actions live in
// recycled records that the engine fires through fireFn, bound once, so
// postponing one allocates nothing in the steady state. Actions on a
// transaction match it by txn id, never by record pointer.
type deferred struct {
	kind      deferredKind
	addr      uint64
	txn       uint64
	val       uint64
	epoch     int
	doneLoad  func(uint64)
	doneStore func()
}

// CacheController is one node's cache hierarchy plus its protocol engine
// and (under SafetyNet) its cache-side Checkpoint Log Buffer.
type CacheController struct {
	node int
	eng  *sim.Engine
	nw   *network.Network
	p    config.Params
	home HomeFunc
	sn   bool

	l1, l2 *cache.Array
	clb    *core.CLB
	bw     cache.Bandwidth

	ccn    msg.CN
	txnSeq uint64
	// epoch counts recoveries; stall-retry closures from before a
	// recovery must not resume.
	epoch int

	mshrs map[uint64]*mshr
	wbs   map[uint64]*wbEntry
	// busy counts the in-flight MSHRs and writebacks by start CN.
	busy core.BusyQueue

	// Recycled transaction and deferred-action records.
	mshrPool     sim.FreeList[mshr]
	wbPool       sim.FreeList[wbEntry]
	deferredPool sim.FreeList[deferred]

	// The *Fn callbacks are bound once so that deferring work, arming a
	// timeout or choosing a victim allocates no closure per access.
	serveFwdGETSFn func(any)
	serveFwdGETXFn func(any)
	onDataFn       func(any)
	fireFn         func(any)
	mshrTimeoutFn  func(any)
	wbTimeoutFn    func(any)
	evictableFn    func(*cache.Line) bool
	noLogEvictFn   func(*cache.Line) bool

	stats CacheStats

	// OnFault reports a detected fault (request timeout). The machine
	// reports it to the service controllers (SafetyNet) or crashes
	// (unprotected baseline).
	OnFault func(cause string)
	// OnReadyChange fires when ReadyCkpt may have increased.
	OnReadyChange func()
	// OnMiss, when set, observes every transactional access (debug).
	OnMiss func(addr uint64, isStore bool)
}

// NewCacheController builds the controller with empty caches.
func NewCacheController(node int, eng *sim.Engine, nw *network.Network, p config.Params, home HomeFunc) *CacheController {
	cc := &CacheController{
		node: node, eng: eng, nw: nw, p: p, home: home,
		sn:    p.SafetyNetEnabled,
		l1:    cache.NewArray(p.L1Sets(), p.L1Ways, p.BlockBytes),
		l2:    cache.NewArray(p.L2Sets(), p.L2Ways, p.BlockBytes),
		ccn:   1,
		mshrs: make(map[uint64]*mshr),
		wbs:   make(map[uint64]*wbEntry),
	}
	if cc.sn {
		cc.clb = core.NewCLB(p.CLBBytes/2, p.CLBEntryBytes)
		if p.DisableLogDedup {
			cc.clb.DisableDedup()
		}
	}
	cc.serveFwdGETSFn = cc.serveFwdGETSArg
	cc.serveFwdGETXFn = cc.serveFwdGETXArg
	cc.onDataFn = cc.onDataArg
	cc.fireFn = cc.fire
	cc.mshrTimeoutFn = cc.mshrTimeout
	cc.wbTimeoutFn = cc.wbTimeout
	cc.evictableFn = cc.evictable
	cc.noLogEvictFn = cc.evictableWithoutLog
	return cc
}

// CCN returns the component's current checkpoint number.
func (cc *CacheController) CCN() msg.CN { return cc.ccn }

// Stats returns a copy of the statistics.
func (cc *CacheController) Stats() CacheStats { return cc.stats }

// Bandwidth returns the cache-port occupancy breakdown (Figure 7).
func (cc *CacheController) Bandwidth() cache.Bandwidth { return cc.bw }

// CLB exposes the cache-side log (nil when SafetyNet is disabled).
func (cc *CacheController) CLB() *core.CLB { return cc.clb }

// L2 exposes the L2 array for invariant checking.
func (cc *CacheController) L2() *cache.Array { return cc.l2 }

// OutstandingTxns returns the number of in-flight transactions (MSHRs and
// writebacks).
func (cc *CacheController) OutstandingTxns() int { return len(cc.mshrs) + len(cc.wbs) }

// OwnedValue returns the node's copy of addr if this node owns it (in the
// array or the writeback buffer). Meaningful only at quiescence.
func (cc *CacheController) OwnedValue(addr uint64) (uint64, bool) {
	if wb := cc.wbs[addr]; wb != nil && wb.hasOwnership {
		return wb.data, true
	}
	if l := cc.l2.Lookup(addr); l != nil && l.State.IsOwner() {
		return l.Data, true
	}
	return 0, false
}

// LineState reports the stable state and value of addr in the L2.
func (cc *CacheController) LineState(addr uint64) (cache.State, uint64, bool) {
	if l := cc.l2.Lookup(addr); l != nil {
		return l.State, l.Data, true
	}
	return cache.Invalid, 0, false
}

// OnEdge advances the component's checkpoint number at a checkpoint-clock
// edge.
func (cc *CacheController) OnEdge() { cc.ccn++ }

// OnValidate deallocates log state for validated checkpoints.
func (cc *CacheController) OnValidate(rpcn msg.CN) {
	if cc.clb != nil {
		cc.clb.DeallocateThrough(rpcn)
	}
}

// ReadyCkpt returns the highest checkpoint this component agrees to
// validate: its CCN, bounded by the start interval of its oldest
// outstanding transaction (paper §3.5 — a cache controller only agrees to
// validate a checkpoint once every transaction it initiated in an earlier
// interval completed successfully). It reads the head of the busy queue,
// which counts in-flight MSHRs and writebacks by start CN.
func (cc *CacheController) ReadyCkpt() msg.CN { return cc.busy.Ready(cc.ccn) }

func (cc *CacheController) blockCycles() uint64 {
	return uint64(cc.p.BlockBytes) / 8 // cache port moves 8 bytes/cycle
}

// ---------------------------------------------------------------------
// Processor interface
// ---------------------------------------------------------------------

// Load issues a blocking load; done receives the block's value token.
//
//snvet:alloc-free
func (cc *CacheController) Load(addr uint64, done func(uint64)) {
	cc.stats.Loads++
	if wb := cc.wbs[addr]; wb != nil {
		// The block is mid-writeback; replay once the writeback
		// resolves to avoid racing our own PUTX.
		wb.onResolve = append(wb.onResolve, deferred{kind: deferLoad, addr: addr, doneLoad: done}) //snvet:alloc-ok amortized: recycled entries keep the list's capacity
		return
	}
	if l2 := cc.l2.Lookup(addr); l2 != nil {
		cc.l2.Touch(l2)
		hit := deferred{kind: deferLoadHit, val: l2.Data, doneLoad: done}
		if cc.l1.Lookup(addr) != nil {
			cc.bw.HitCycles += cc.blockCycles()
			cc.stats.L1Hits++
			cc.later(sim.Time(cc.p.L1HitCycles), hit)
			return
		}
		cc.stats.L2Hits++
		cc.bw.HitCycles += cc.blockCycles()
		cc.bw.FillCycles += cc.blockCycles() // refill the L1
		cc.fillL1(addr)
		cc.later(sim.Time(cc.p.L2HitCycles), hit)
		return
	}
	cc.stats.Misses++
	if cc.OnMiss != nil {
		cc.OnMiss(addr, false)
	}
	cc.startTxn(addr, false, 0, done, nil)
}

// Store issues a blocking store of the value token val.
//
//snvet:alloc-free
func (cc *CacheController) Store(addr uint64, val uint64, done func()) {
	cc.stats.Stores++
	cc.storeInner(addr, val, done)
}

// storeInner dispatches a store without re-counting statistics (used by
// CLB-stall retries, which must re-evaluate the block's state because a
// forwarded request may have taken it away during the stall).
//
//snvet:alloc-free
func (cc *CacheController) storeInner(addr uint64, val uint64, done func()) {
	if wb := cc.wbs[addr]; wb != nil {
		wb.onResolve = append(wb.onResolve, deferred{kind: deferStore, addr: addr, val: val, epoch: cc.epoch, doneStore: done}) //snvet:alloc-ok amortized: recycled entries keep the list's capacity
		return
	}
	l2 := cc.l2.Lookup(addr)
	if l2 != nil && l2.State == cache.Modified {
		cc.l2.Touch(l2)
		cc.storeHit(l2, val, done)
		return
	}
	if l2 != nil {
		// S or O: upgrade.
		cc.stats.Upgrades++
		if cc.OnMiss != nil {
			cc.OnMiss(addr, true)
		}
		cc.startTxn(addr, true, val, nil, done)
		return
	}
	cc.stats.Misses++
	if cc.OnMiss != nil {
		cc.OnMiss(addr, true)
	}
	cc.startTxn(addr, true, val, nil, done)
}

// FastAccess attempts a reference without engine involvement: cache hits
// (including stores to Modified blocks) return their latency immediately
// so the processor can batch hit runs into a single event. It returns
// ok=false when the access needs the transactional slow path (miss,
// upgrade, writeback race, or CLB back-pressure).
//
//snvet:alloc-free
func (cc *CacheController) FastAccess(addr uint64, isStore bool, val uint64) (sim.Time, bool) {
	if cc.wbs[addr] != nil {
		return 0, false
	}
	l2 := cc.l2.Lookup(addr)
	if l2 == nil {
		return 0, false
	}
	if !isStore {
		cc.stats.Loads++
		cc.l2.Touch(l2)
		if cc.l1.Lookup(addr) != nil {
			cc.stats.L1Hits++
			cc.bw.HitCycles += cc.blockCycles()
			return sim.Time(cc.p.L1HitCycles), true
		}
		cc.stats.L2Hits++
		cc.bw.HitCycles += cc.blockCycles()
		cc.bw.FillCycles += cc.blockCycles()
		cc.fillL1(addr)
		return sim.Time(cc.p.L2HitCycles), true
	}
	if l2.State != cache.Modified {
		return 0, false
	}
	logLat, ok := cc.storeApply(l2, val)
	if !ok {
		return 0, false // slow path throttles
	}
	cc.stats.Stores++
	cc.l2.Touch(l2)
	cc.bw.HitCycles += cc.blockCycles()
	return sim.Time(cc.p.L1HitCycles) + logLat, true
}

// storeHit performs a store to a Modified block. A full CLB throttles the
// store (paper §3.3: "we can throttle requests from the CPU").
//
//snvet:alloc-free
func (cc *CacheController) storeHit(l2 *cache.Line, val uint64, done func()) {
	logLat, ok := cc.storeApply(l2, val)
	if !ok {
		cc.stats.CLBStallCycles += clbRetryCycles
		cc.later(clbRetryCycles, deferred{kind: deferStore, addr: l2.Addr, val: val, epoch: cc.epoch, doneStore: done})
		return
	}
	cc.bw.HitCycles += cc.blockCycles()
	cc.eng.After(sim.Time(cc.p.L1HitCycles)+logLat, done)
}

// storeApply writes val into the Modified line l, logging the old copy
// first when the update-action rule requires it, and refills the L1. It
// returns the logging latency, or ok=false, changing nothing, when the
// CLB refused the entry.
//
//snvet:alloc-free
func (cc *CacheController) storeApply(l *cache.Line, val uint64) (logLat sim.Time, ok bool) {
	// NeedsLog is asked first so that a store hit needing no entry, the
	// common case, builds none.
	if cc.sn && cc.clb.NeedsLog(l.CN, cc.ccn) {
		if _, refused := cc.clb.Log(cc.ccn, core.Entry{
			Addr: l.Addr, Tag: core.UpdatedCN(cc.ccn),
			OldData: l.Data, OldCN: l.CN, OldState: l.State,
		}); refused {
			return 0, false
		}
		cc.bw.LoggingCycles += cc.p.LogStoreCycles
		logLat = sim.Time(cc.p.LogStoreCycles)
	}
	if cc.sn {
		l.CN = core.UpdatedCN(cc.ccn)
	}
	l.Data = val
	cc.fillL1(l.Addr)
	return logLat, true
}

const clbRetryCycles = 100

//snvet:alloc-free
func (cc *CacheController) fillL1(addr uint64) {
	if l1 := cc.l1.Lookup(addr); l1 != nil {
		cc.l1.Touch(l1)
		return
	}
	v := cc.l1.Victim(addr, nil)
	cc.l1.Install(v, addr, cache.Shared, msg.Null, 0) // L1 is a presence filter
}

// ---------------------------------------------------------------------
// Deferred actions
// ---------------------------------------------------------------------

// later performs d after delay cycles.
//
//snvet:alloc-free
func (cc *CacheController) later(delay sim.Time, d deferred) {
	r := cc.deferredPool.Get()
	*r = d
	cc.eng.AfterArg(delay, cc.fireFn, r)
}

// fire recycles a scheduled record and performs its action.
//
//snvet:alloc-free
func (cc *CacheController) fire(a any) {
	r := a.(*deferred)
	d := *r
	cc.deferredPool.Put(r)
	cc.perform(d)
}

// perform runs a deferred action.
//
//snvet:alloc-free
func (cc *CacheController) perform(d deferred) {
	switch d.kind {
	case deferLoadHit:
		d.doneLoad(d.val)
	case deferLoad:
		cc.Load(d.addr, d.doneLoad)
	case deferStore:
		if cc.epoch == d.epoch { // abandoned if a recovery intervened
			cc.storeInner(d.addr, d.val, d.doneStore)
		}
	case deferRequest:
		if m := cc.mshrs[d.addr]; m != nil && m.txn == d.txn { // not recovered away
			cc.sendRequest(m)
		}
	case deferPUTX:
		if wb := cc.wbs[d.addr]; wb != nil && wb.txn == d.txn {
			cc.sendPUTX(wb)
		}
	case deferGETX:
		if m := cc.mshrs[d.addr]; m != nil && m.txn == d.txn { // not recovered away
			cc.tryCompleteGETX(m)
		}
	}
}

// ---------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------

//snvet:alloc-free
func (cc *CacheController) startTxn(addr uint64, isStore bool, val uint64, doneLoad func(uint64), doneStore func()) {
	if _, busy := cc.mshrs[addr]; busy {
		panic(fmt.Sprintf("protocol: node %d double transaction on %#x (blocking processor)", cc.node, addr))
	}
	cc.txnSeq++
	m := cc.mshrPool.Get()
	*m = mshr{
		addr: addr, txn: cc.txnID(), isStore: isStore, storeVal: val,
		startCCN: cc.ccn, doneLoad: doneLoad, doneStore: doneStore,
	}
	cc.mshrs[addr] = m //snvet:alloc-ok amortized: the table grows to the peak of concurrent transactions, then reuses deleted slots
	cc.busy.Add(m.startCCN)
	cc.sendRequest(m)
}

func (cc *CacheController) txnID() uint64 {
	return uint64(cc.node)<<48 | cc.txnSeq
}

//snvet:alloc-free
func (cc *CacheController) sendRequest(m *mshr) {
	t := msg.GETS
	haveData := false
	if m.isStore {
		t = msg.GETX
		// Report whether we still hold a valid copy so the directory can
		// grant a data-less upgrade. Re-evaluated on every retry: an
		// invalidation may have landed in between.
		if l := cc.l2.Lookup(m.addr); l != nil && l.State != cache.Invalid {
			haveData = true
		}
	}
	cc.stats.RequestsIssued++
	req := msg.Alloc()
	*req = msg.Message{
		Type: t, Src: cc.node, Dst: cc.home(m.addr), Addr: m.addr,
		Txn: m.txn, HaveData: haveData,
	}
	cc.nw.Send(req)
	cc.armMSHRTimeout(m)
}

//snvet:alloc-free
func (cc *CacheController) armMSHRTimeout(m *mshr) {
	m.cancelTimeout.Cancel()
	m.cancelTimeout = cc.eng.ScheduleCancelableArg(cc.eng.Now()+sim.Time(cc.p.RequestTimeoutCycles), cc.mshrTimeoutFn, m)
}

// mshrTimeout fires when a request went unanswered: a fault ate it. The
// timeout is canceled before its MSHR is recycled, so m is still the
// transaction that armed it.
func (cc *CacheController) mshrTimeout(a any) {
	m := a.(*mshr)
	cc.stats.Timeouts++
	if cc.OnFault != nil {
		cc.OnFault(fmt.Sprintf("node %d: request timeout addr %#x", cc.node, m.addr))
	}
}

// completeTxn closes m and recycles it; callers read what they need
// from m first.
//
//snvet:alloc-free
func (cc *CacheController) completeTxn(m *mshr) {
	m.cancelTimeout.Cancel()
	delete(cc.mshrs, m.addr)
	cc.busy.Done(m.startCCN)
	cc.mshrPool.Put(m)
	if cc.OnReadyChange != nil {
		cc.OnReadyChange()
	}
}

// retryBackoffCycles spaces nack retries to let the directory drain.
func (cc *CacheController) retryBackoff() sim.Time {
	return sim.Time(300 + (cc.txnSeq*37)%256)
}

// ---------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------

// Handle processes a message delivered to this node's cache controller.
// It owns m: synchronous cases release it here, while the Data and
// forwarded-request paths keep it alive across their deferred processing
// and release it on their terminal paths.
func (cc *CacheController) Handle(m *msg.Message) {
	if m.Corrupted {
		// The end-point error-detecting code catches the damage; the
		// payload is discarded and the fault reported (paper Table 1:
		// "detected using an error detection code (e.g., CRC)").
		if cc.OnFault != nil {
			cc.OnFault(fmt.Sprintf("node %d: corrupt %v detected by CRC", cc.node, m.Type))
		}
		msg.Release(m)
		return
	}
	switch m.Type {
	case msg.Data:
		cc.onData(m) // releases m on its terminal paths
		return
	case msg.FwdGETS:
		cc.onFwdGETS(m) // releases m when the deferred serve completes
		return
	case msg.FwdGETX:
		cc.onFwdGETX(m) // releases m when the deferred serve completes
		return
	case msg.DataEx:
		cc.onDataEx(m)
	case msg.AckCount:
		cc.onAckCount(m)
	case msg.InvAck:
		cc.onInvAck(m)
	case msg.Inv:
		cc.onInv(m)
	case msg.NackReq:
		cc.onNack(m)
	case msg.WBAck, msg.WBStale:
		cc.onWBResponse(m)
	default:
		panic(fmt.Sprintf("protocol: cache controller got %v", m))
	}
	msg.Release(m)
}

func (cc *CacheController) onDataArg(a any) { cc.onData(a.(*msg.Message)) }

//snvet:alloc-free
func (cc *CacheController) onData(m *msg.Message) {
	mm := cc.mshrs[m.Addr]
	if mm == nil || mm.txn != m.Txn || mm.isStore {
		msg.Release(m)
		return // stale response from a superseded attempt
	}
	if _, ok := cc.installL2(m.Addr, cache.Shared, m.CN, m.Data); !ok {
		// Every candidate victim needs a log entry and the CLB is full;
		// throttle until validation frees space (paper §3.3). m stays
		// alive across the retry.
		cc.stats.CLBStallCycles += clbRetryCycles
		cc.eng.AfterArg(clbRetryCycles, cc.onDataFn, m)
		return
	}
	if m.NeedsAck {
		ack := msg.Alloc()
		*ack = msg.Message{Type: msg.AckDone, Src: cc.node, Dst: cc.home(m.Addr), Addr: m.Addr, CN: m.CN, Txn: m.Txn}
		cc.nw.Send(ack)
	}
	done := mm.doneLoad
	data := m.Data
	msg.Release(m)
	cc.completeTxn(mm)
	done(data)
}

//snvet:alloc-free
func (cc *CacheController) onDataEx(m *msg.Message) {
	mm := cc.mshrs[m.Addr]
	if mm == nil || mm.txn != m.Txn || !mm.isStore {
		return
	}
	mm.dataReceived = true
	mm.dataVal = m.Data
	mm.dataCN = m.CN
	mm.acksKnown = true
	mm.acksNeeded = m.AckCount
	cc.tryCompleteGETX(mm)
}

func (cc *CacheController) onAckCount(m *msg.Message) {
	mm := cc.mshrs[m.Addr]
	if mm == nil || mm.txn != m.Txn || !mm.isStore {
		return
	}
	if mm.lostData {
		// The directory granted an upgrade, so it saw us as a sharer; an
		// Inv that cleared our copy can only come from a transaction
		// serialized before ours, which would have cleared the sharer
		// bit. Both cannot hold.
		panic(fmt.Sprintf("protocol: node %d upgrade grant after losing data on %#x", cc.node, m.Addr))
	}
	l2 := cc.l2.Lookup(m.Addr)
	if l2 == nil {
		panic(fmt.Sprintf("protocol: node %d AckCount without a copy of %#x", cc.node, m.Addr))
	}
	mm.dataReceived = true
	mm.dataVal = l2.Data
	mm.dataCN = m.CN
	mm.acksKnown = true
	mm.acksNeeded = m.AckCount
	cc.tryCompleteGETX(mm)
}

//snvet:alloc-free
func (cc *CacheController) onInvAck(m *msg.Message) {
	mm := cc.mshrs[m.Addr]
	if mm == nil || mm.txn != m.Txn {
		return
	}
	bit := uint64(1) << uint(m.Src)
	if mm.ackFrom&bit != 0 {
		return // duplicate delivery of an ack this transaction already has
	}
	mm.ackFrom |= bit
	mm.acksGot++
	cc.tryCompleteGETX(mm)
}

// tryCompleteGETX finishes a GETX once data and every invalidation ack
// arrived: install Modified with the transfer CN, apply the store under
// the logging rule, and close the transaction with the final
// acknowledgment to the directory. A CLB stall retries through a
// deferGETX record, which a recovery in between leaves stale.
//
//snvet:alloc-free
func (cc *CacheController) tryCompleteGETX(mm *mshr) {
	if !mm.dataReceived || !mm.acksKnown || mm.acksGot < mm.acksNeeded {
		return
	}
	if mm.acksGot > mm.acksNeeded {
		panic("protocol: excess invalidation acks")
	}
	// An O -> M upgrade gives up the Owned incarnation of the block: the
	// dirty O data lives only here (memory is stale), so the transition
	// is an ownership-transfer update-action and must be logged with the
	// transaction's CN. A recovery past that CN then restores the O line
	// (and the directory unroll restores the old owner/sharers).
	if existing := cc.l2.Lookup(mm.addr); existing != nil && existing.State.IsOwner() && cc.sn {
		if _, refused := cc.clb.Log(cc.ccn, core.Entry{
			Addr: mm.addr, Tag: mm.dataCN,
			OldData: existing.Data, OldCN: existing.CN, OldState: existing.State,
			Transfer: true,
		}); refused {
			cc.stats.CLBStallCycles += clbRetryCycles
			cc.later(clbRetryCycles, deferred{kind: deferGETX, addr: mm.addr, txn: mm.txn})
			return
		}
	}
	// Ownership arrives first: the line becomes Modified tagged with the
	// transaction's point-of-atomicity CN...
	l2, ok := cc.installL2(mm.addr, cache.Modified, mm.dataCN, mm.dataVal)
	if !ok {
		cc.stats.CLBStallCycles += clbRetryCycles
		cc.later(clbRetryCycles, deferred{kind: deferGETX, addr: mm.addr, txn: mm.txn})
		return
	}
	// ...then the store applies as a separate update-action. Logging the
	// post-transfer state (Modified, transfer CN) keeps recovery exact:
	// rolling back past the store but not the transfer restores Modified
	// with the pre-store data; rolling back past the transfer CN
	// invalidates the line and the directory unroll restores the old
	// owner.
	if _, ok := cc.storeApply(l2, mm.storeVal); !ok {
		cc.stats.CLBStallCycles += clbRetryCycles
		cc.later(clbRetryCycles, deferred{kind: deferGETX, addr: mm.addr, txn: mm.txn})
		return
	}
	ack := msg.Alloc()
	*ack = msg.Message{Type: msg.AckDone, Src: cc.node, Dst: cc.home(mm.addr), Addr: mm.addr, CN: mm.dataCN, Txn: mm.txn}
	cc.nw.Send(ack)
	done := mm.doneStore
	cc.completeTxn(mm)
	cc.eng.After(sim.Time(cc.p.L1HitCycles), done)
}

//snvet:alloc-free
func (cc *CacheController) onInv(m *msg.Message) {
	if mm := cc.mshrs[m.Addr]; mm != nil && mm.isStore {
		// Our upgrade lost the race; we will be served data instead.
		mm.lostData = true
	}
	cc.l2.Invalidate(m.Addr)
	cc.l1.Invalidate(m.Addr)
	ack := msg.Alloc()
	*ack = msg.Message{Type: msg.InvAck, Src: cc.node, Dst: m.Requestor, Addr: m.Addr, Txn: m.Txn}
	cc.nw.Send(ack)
}

func (cc *CacheController) onFwdGETS(m *msg.Message) {
	cc.eng.AfterArg(sim.Time(cc.p.L2HitCycles), cc.serveFwdGETSFn, m)
}

func (cc *CacheController) serveFwdGETSArg(a any) { cc.serveFwdGETS(a.(*msg.Message)) }

func (cc *CacheController) serveFwdGETS(m *msg.Message) {
	defer msg.Release(m)
	if m.Epoch != cc.nw.Epoch() {
		return // a recovery landed while the request sat in the controller
	}
	var data uint64
	if wb := cc.wbs[m.Addr]; wb != nil && wb.hasOwnership {
		data = wb.data
		// The buffer keeps ownership: a GETS takes only a shared copy.
	} else if l2 := cc.l2.Lookup(m.Addr); l2 != nil && l2.State.IsOwner() {
		if l2.State == cache.Modified {
			l2.State = cache.Owned
		}
		data = l2.Data
	} else {
		// An illegal message: a forwarded request for a block this node
		// does not own (a duplicated or misrouted message, or a corrupt
		// directory). End-points detect illegal messages and report the
		// fault (paper Table 1).
		if cc.OnFault != nil {
			cc.OnFault(fmt.Sprintf("node %d: illegal FwdGETS for %#x (not owner)", cc.node, m.Addr))
		}
		return
	}
	cc.bw.CoherenceCycles += cc.blockCycles()
	cn := msg.Null
	if cc.sn {
		cn = core.UpdatedCN(cc.ccn)
	}
	resp := msg.Alloc()
	*resp = msg.Message{
		Type: msg.Data, Src: cc.node, Dst: m.Requestor, Addr: m.Addr,
		Data: data, CN: cn, NeedsAck: true, Txn: m.Txn,
	}
	cc.nw.Send(resp)
}

func (cc *CacheController) onFwdGETX(m *msg.Message) {
	cc.eng.AfterArg(sim.Time(cc.p.L2HitCycles), cc.serveFwdGETXFn, m)
}

func (cc *CacheController) serveFwdGETXArg(a any) { cc.serveFwdGETX(a.(*msg.Message)) }

// serveFwdGETX transfers ownership out of the cache (or the writeback
// buffer): log the block under the update-action rule, invalidate the
// local copy, and send data with the new CN (paper §3.3: "when giving up
// ownership of a block, a component performs logging and then sends a
// response with the block and the updated CN").
func (cc *CacheController) serveFwdGETX(m *msg.Message) {
	if m.Epoch != cc.nw.Epoch() {
		msg.Release(m)
		return // a recovery landed while the request sat in the controller
	}
	var data uint64
	var oldCN msg.CN
	var oldState cache.State
	if wb := cc.wbs[m.Addr]; wb != nil && wb.hasOwnership {
		data, oldCN, oldState = wb.data, wb.cn, wb.state
	} else if l2 := cc.l2.Lookup(m.Addr); l2 != nil && l2.State.IsOwner() {
		data, oldCN, oldState = l2.Data, l2.CN, l2.State
	} else {
		// Illegal message (duplicated/misrouted forward): detected at
		// the end-point, reported, discarded (paper Table 1).
		if cc.OnFault != nil {
			cc.OnFault(fmt.Sprintf("node %d: illegal FwdGETX for %#x (not owner)", cc.node, m.Addr))
		}
		msg.Release(m)
		return
	}
	if cc.sn {
		if _, refused := cc.clb.Log(cc.ccn, core.Entry{
			Addr: m.Addr, Tag: core.UpdatedCN(cc.ccn),
			OldData: data, OldCN: oldCN, OldState: oldState,
			Transfer: true,
		}); refused {
			// Hold the response until validation frees space; the
			// requestor's transaction simply takes longer. Recovery via
			// the requestor's timeout is the backstop if validation
			// cannot advance (paper §3.3). m stays alive for the retry.
			cc.stats.CLBStallCycles += clbRetryCycles
			cc.eng.AfterArg(clbRetryCycles, cc.serveFwdGETXFn, m)
			return
		}
	}
	if wb := cc.wbs[m.Addr]; wb != nil && wb.hasOwnership {
		wb.hasOwnership = false
	} else {
		cc.l2.Invalidate(m.Addr)
		cc.l1.Invalidate(m.Addr)
	}
	cc.bw.CoherenceCycles += cc.blockCycles()
	cn := msg.Null
	if cc.sn {
		cn = core.UpdatedCN(cc.ccn)
	}
	resp := msg.Alloc()
	*resp = msg.Message{
		Type: msg.DataEx, Src: cc.node, Dst: m.Requestor, Addr: m.Addr,
		Data: data, CN: cn, AckCount: m.AckCount, Txn: m.Txn,
	}
	cc.nw.Send(resp)
	msg.Release(m)
}

//snvet:alloc-free
func (cc *CacheController) onNack(m *msg.Message) {
	cc.stats.NacksReceived++
	if mm := cc.mshrs[m.Addr]; mm != nil && mm.txn == m.Txn {
		cc.stats.Retries++
		cc.later(cc.retryBackoff(), deferred{kind: deferRequest, addr: m.Addr, txn: mm.txn})
		return
	}
	if wb := cc.wbs[m.Addr]; wb != nil && wb.txn == m.Txn {
		if !wb.hasOwnership {
			// Ownership already left through a forwarded request; the
			// writeback is moot.
			cc.resolveWB(wb)
			return
		}
		cc.stats.Retries++
		cc.later(cc.retryBackoff(), deferred{kind: deferPUTX, addr: m.Addr, txn: wb.txn})
	}
}

//snvet:alloc-free
func (cc *CacheController) onWBResponse(m *msg.Message) {
	wb := cc.wbs[m.Addr]
	if wb == nil || wb.txn != m.Txn {
		return
	}
	cc.resolveWB(wb)
}

// resolveWB closes a writeback, replays the accesses that waited on it,
// and recycles the entry.
//
//snvet:alloc-free
func (cc *CacheController) resolveWB(wb *wbEntry) {
	wb.cancelTimeout.Cancel()
	delete(cc.wbs, wb.addr)
	cc.busy.Done(wb.startCCN)
	if cc.OnReadyChange != nil {
		cc.OnReadyChange()
	}
	for _, d := range wb.onResolve {
		cc.perform(d)
	}
	cc.wbPool.Put(wb)
}

// ---------------------------------------------------------------------
// Fills, evictions, writebacks
// ---------------------------------------------------------------------

// installL2 places a block into the L2, evicting as needed. It returns
// (line, true) on success, or (nil, false) when the only eviction
// candidates are owned blocks whose transfer must be logged while the CLB
// is full — the caller must throttle and retry.
//
//snvet:alloc-free
func (cc *CacheController) installL2(addr uint64, st cache.State, cn msg.CN, data uint64) (*cache.Line, bool) {
	if l2 := cc.l2.Lookup(addr); l2 != nil {
		// Upgrade path: the block is already resident.
		l2.State = st
		l2.CN = cn
		// Data unchanged: an upgrade grants permission, not data.
		cc.l2.Touch(l2)
		return l2, true
	}
	v := cc.l2.Victim(addr, cc.evictableFn)
	if v == nil {
		// Cannot happen with a blocking processor (at most one MSHR and
		// its upgrades pin one line per set).
		panic(fmt.Sprintf("protocol: node %d has no evictable frame for %#x", cc.node, addr))
	}
	if v.State.IsOwner() && cc.sn && cc.clb.NeedsLog(v.CN, cc.ccn) && cc.clb.Full() {
		// Evicting this block requires logging the ownership transfer;
		// prefer a victim that does not.
		alt := cc.l2.Victim(addr, cc.noLogEvictFn)
		if alt == nil {
			return nil, false
		}
		v = alt
	}
	if v.State.IsOwner() {
		cc.startWriteback(v)
	}
	cc.l2.Install(v, addr, st, cn, data)
	cc.bw.FillCycles += cc.blockCycles()
	cc.fillL1(addr)
	return cc.l2.Lookup(addr), true
}

// evictable reports whether an L2 frame may be replaced: no transaction
// or writeback is pending on its block.
func (cc *CacheController) evictable(l *cache.Line) bool {
	return cc.mshrs[l.Addr] == nil && cc.wbs[l.Addr] == nil
}

// evictableWithoutLog also rules out owned blocks whose eviction would
// need a transfer log entry.
func (cc *CacheController) evictableWithoutLog(l *cache.Line) bool {
	return cc.evictable(l) && !(l.State.IsOwner() && cc.clb.NeedsLog(l.CN, cc.ccn))
}

// startWriteback moves an evicted owned block into the writeback buffer
// and sends the PUTX. Giving up ownership is an update-action: log it.
//
//snvet:alloc-free
func (cc *CacheController) startWriteback(v *cache.Line) {
	cn := msg.Null
	if cc.sn {
		// installL2 guarantees CLB space before choosing a victim that
		// requires a transfer log.
		cc.clb.Log(cc.ccn, core.Entry{
			Addr: v.Addr, Tag: core.UpdatedCN(cc.ccn),
			OldData: v.Data, OldCN: v.CN, OldState: v.State,
			Transfer: true,
		})
		cn = core.UpdatedCN(cc.ccn)
	}
	cc.txnSeq++
	wb := cc.wbPool.Get()
	*wb = wbEntry{
		addr: v.Addr, data: v.Data, cn: cn, state: v.State,
		hasOwnership: true, txn: cc.txnID(), startCCN: cc.ccn,
		onResolve: wb.onResolve[:0],
	}
	cc.wbs[v.Addr] = wb //snvet:alloc-ok amortized: the table grows to the peak of pending writebacks, then reuses deleted slots
	cc.busy.Add(wb.startCCN)
	cc.stats.Writebacks++
	cc.bw.CoherenceCycles += cc.blockCycles()
	cc.sendPUTX(wb)
}

//snvet:alloc-free
func (cc *CacheController) sendPUTX(wb *wbEntry) {
	cc.stats.RequestsIssued++
	req := msg.Alloc()
	*req = msg.Message{
		Type: msg.PUTX, Src: cc.node, Dst: cc.home(wb.addr), Addr: wb.addr,
		Data: wb.data, CN: wb.cn, Txn: wb.txn,
	}
	cc.nw.Send(req)
	wb.cancelTimeout.Cancel()
	wb.cancelTimeout = cc.eng.ScheduleCancelableArg(cc.eng.Now()+sim.Time(cc.p.RequestTimeoutCycles), cc.wbTimeoutFn, wb)
}

// wbTimeout fires when a writeback went unanswered; like mshrTimeout it
// is canceled before its entry is recycled.
func (cc *CacheController) wbTimeout(a any) {
	wb := a.(*wbEntry)
	cc.stats.Timeouts++
	if cc.OnFault != nil {
		cc.OnFault(fmt.Sprintf("node %d: writeback timeout addr %#x", cc.node, wb.addr))
	}
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

// Recover rolls this cache back to checkpoint rpcn (paper §3.6): discard
// all transaction state, unroll the CLB in reverse (restoring old data,
// CN, and state; allocating frames for blocks that were evicted after the
// recovery point), and invalidate every block still tagged with an
// unvalidated CN — those were clean fills in unvalidated intervals.
// flushToMem absorbs validated dirty victims displaced by restores. It
// returns the number of log entries unrolled (recovery-cost accounting).
func (cc *CacheController) Recover(rpcn msg.CN, flushToMem func(addr, data uint64)) int {
	for _, m := range cc.mshrs {
		m.cancelTimeout.Cancel()
		cc.mshrPool.Put(m)
	}
	for _, wb := range cc.wbs {
		wb.cancelTimeout.Cancel()
		cc.wbPool.Put(wb)
	}
	clear(cc.mshrs)
	clear(cc.wbs)
	cc.busy.Reset()
	cc.epoch++

	n := 0
	if cc.clb != nil {
		n = cc.clb.UnrollCache(cc.l2, rpcn, flushToMem)
	}
	cc.l2.ForEachValid(func(l *cache.Line) {
		if l.CN > rpcn {
			l.State = cache.Invalid
		}
	})
	cc.l1.InvalidateAll()
	cc.ccn = rpcn
	return n
}
