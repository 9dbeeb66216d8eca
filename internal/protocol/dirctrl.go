package protocol

import (
	"fmt"

	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/sim"
)

// DirStats aggregates directory/memory-controller activity.
type DirStats struct {
	Requests  uint64
	Nacks     uint64
	Forwards  uint64
	MemReads  uint64
	MemWrites uint64
	// CLBStallCycles counts time AckDone processing waited on a full CLB.
	CLBStallCycles uint64
}

// pending describes the transaction holding a directory entry busy until
// the requestor's final acknowledgment (a 2-hop GETS holds its entry busy
// with no pending record: no acknowledgment closes it).
type pending struct {
	typ       msg.Type // GETS or GETX
	requestor int
	txn       uint64
	startCCN  msg.CN
}

// dirEntry is one block's directory state plus its SafetyNet CN (used for
// the first-update-per-interval logging optimization on the memory side).
type dirEntry struct {
	owner   int
	sharers uint32
	cn      msg.CN
	busy    bool
	pend    pending
}

// memReply is a reply memory sends once its access latency elapsed: Data
// for a 2-hop GETS, DataEx for a GETX that memory serves, or WBAck for an
// absorbed writeback. Pending replies live in recycled records fired
// through replyFn, so a memory access allocates no closure.
type memReply struct {
	typ      msg.Type
	dst      int
	addr     uint64
	txn      uint64
	cn       msg.CN
	ackCount int
	// epoch is the network epoch the request was served in; a recovery
	// since then voids the reply.
	epoch int
	// gets is the entry a 2-hop GETS holds busy until its data leaves.
	gets *dirEntry
}

// DirController is one node's directory and memory controller: it owns the
// node's slice of shared memory, serializes coherence transactions per
// block, and (under SafetyNet) logs every memory/directory update-action
// into the memory-side Checkpoint Log Buffer.
type DirController struct {
	node int
	eng  *sim.Engine
	nw   *network.Network
	p    config.Params
	sn   bool

	mem     map[uint64]uint64
	entries map[uint64]*dirEntry
	// chunk holds the entries not yet handed out (see entry).
	chunk []dirEntry
	clb   *core.CLB

	ccn msg.CN
	// busy counts the transactions awaiting AckDone by start CN.
	busy      core.BusyQueue
	busyUntil sim.Time
	// jitter draws the LatencyPerturbation occupancy jitter from
	// jitterBound, [0, LatencyPerturbation].
	jitter      *sim.Rand
	jitterBound sim.Bound

	// The *Fn callbacks are bound once so that deferred dispatch, memory
	// replies and stall retries allocate no closure per message.
	dispatchFn     func(any)
	replyFn        func(any)
	ackDoneRetryFn func(any)
	replyPool      sim.FreeList[memReply]

	stats DirStats

	// OnReadyChange fires when ReadyCkpt may have increased.
	OnReadyChange func()
}

// NewDirController builds the controller with pristine memory (every block
// reads as InitialData).
func NewDirController(node int, eng *sim.Engine, nw *network.Network, p config.Params) *DirController {
	dc := &DirController{
		node: node, eng: eng, nw: nw, p: p,
		sn:      p.SafetyNetEnabled,
		mem:     make(map[uint64]uint64),
		entries: make(map[uint64]*dirEntry),
		ccn:     1,
		jitter:  sim.NewRand(p.Seed ^ uint64(node)<<32 ^ 0xd1ec7),
	}
	if dc.sn {
		dc.clb = core.NewCLB(p.CLBBytes/2, p.CLBEntryBytes)
	}
	if p.LatencyPerturbation > 0 {
		dc.jitterBound = sim.NewBound(p.LatencyPerturbation + 1)
	}
	dc.dispatchFn = dc.dispatch
	dc.replyFn = dc.sendReply
	dc.ackDoneRetryFn = dc.retryAckDone
	return dc
}

// CCN returns the component's current checkpoint number.
func (dc *DirController) CCN() msg.CN { return dc.ccn }

// Stats returns a copy of the statistics.
func (dc *DirController) Stats() DirStats { return dc.stats }

// CLB exposes the memory-side log (nil when SafetyNet is disabled).
func (dc *DirController) CLB() *core.CLB { return dc.clb }

// OnEdge advances the checkpoint number at a checkpoint-clock edge.
func (dc *DirController) OnEdge() { dc.ccn++ }

// OnValidate deallocates log state for validated checkpoints.
func (dc *DirController) OnValidate(rpcn msg.CN) {
	if dc.clb != nil {
		dc.clb.DeallocateThrough(rpcn)
	}
}

// ReadyCkpt returns the highest checkpoint this directory agrees to
// validate: its CCN bounded by the start interval of its oldest busy
// transaction (paper §3.5 — a directory controller only agrees to validate
// after every transaction it forwarded completed, signalled by the
// requestor's final acknowledgment). It reads the head of the busy queue,
// which counts the transactions awaiting AckDone by start CN.
func (dc *DirController) ReadyCkpt() msg.CN { return dc.busy.Ready(dc.ccn) }

// BusyEntries returns the number of transactions awaiting the
// requestor's AckDone: forwarded GETS and every GETX. A 2-hop GETS, whose
// entry stays busy only until memory's reply leaves, is not counted.
func (dc *DirController) BusyEntries() int { return dc.busy.Len() }

// MemData returns the memory image's token for addr.
func (dc *DirController) MemData(addr uint64) uint64 {
	if v, ok := dc.mem[addr]; ok {
		return v
	}
	return InitialData(addr)
}

// ForEachEntry visits every directory entry (for invariant checking).
func (dc *DirController) ForEachEntry(f func(addr uint64, owner int, sharers uint32, busy bool)) {
	for addr, e := range dc.entries {
		f(addr, e.owner, e.sharers, e.busy)
	}
}

// Entry returns the directory view (owner, sharers) of addr.
func (dc *DirController) Entry(addr uint64) (owner int, sharers uint32) {
	e, ok := dc.entries[addr]
	if !ok {
		return MemOwner, 0
	}
	return e.owner, e.sharers
}

// DirectWriteback absorbs a validated dirty victim displaced during
// another node's recovery restore. Recovery is globally quiesced, so the
// state surgery is safe — it models a recovery-time writeback.
func (dc *DirController) DirectWriteback(addr, data uint64) {
	dc.mem[addr] = data
	e := dc.entry(addr)
	e.owner = MemOwner
}

// entryChunk is how many directory entries entry allocates at a time.
const entryChunk = 256

// entry returns addr's directory entry, creating it on first touch. New
// entries come from a chunk of entryChunk, so a run makes one allocation
// per chunk instead of one per block; an entry never moves, because
// memReply.gets points into it.
func (dc *DirController) entry(addr uint64) *dirEntry {
	e, ok := dc.entries[addr]
	if !ok {
		if len(dc.chunk) == 0 {
			dc.chunk = make([]dirEntry, entryChunk)
		}
		e = &dc.chunk[0]
		dc.chunk = dc.chunk[1:]
		e.owner = MemOwner
		dc.entries[addr] = e
	}
	return e
}

// occupyArg serializes the controller: fn(arg) runs once a request
// starting now has held it for lat cycles, queued behind earlier work,
// with optional pseudo-random perturbation (the Alameldeen et al.
// methodology).
//
//snvet:alloc-free
func (dc *DirController) occupyArg(lat sim.Time, fn func(any), arg any) {
	dc.eng.ScheduleArg(dc.occupyStart(lat), fn, arg)
}

// reply sends r's message after a memory access, occupying the
// controller for it.
//
//snvet:alloc-free
func (dc *DirController) reply(r memReply) {
	p := dc.replyPool.Get()
	*p = r
	p.epoch = dc.nw.Epoch()
	dc.occupyArg(sim.Time(dc.p.MemAccessCycles), dc.replyFn, p)
}

// sendReply recycles a pending reply's record and sends the reply
// unless a recovery voided it.
//
//snvet:alloc-free
func (dc *DirController) sendReply(a any) {
	p := a.(*memReply)
	r := *p
	dc.replyPool.Put(p)
	if r.epoch != dc.nw.Epoch() {
		return
	}
	if r.gets != nil {
		r.gets.busy = false
	}
	resp := msg.Alloc()
	*resp = msg.Message{Type: r.typ, Src: dc.node, Dst: r.dst, Addr: r.addr, Txn: r.txn}
	if r.typ != msg.WBAck {
		resp.Data, resp.CN, resp.AckCount = dc.MemData(r.addr), r.cn, r.ackCount
	}
	dc.nw.Send(resp)
}

func (dc *DirController) occupyStart(lat sim.Time) sim.Time {
	if dc.p.LatencyPerturbation > 0 {
		lat += sim.Time(dc.jitter.Below(dc.jitterBound))
	}
	start := dc.eng.Now()
	if dc.busyUntil > start {
		start = dc.busyUntil
	}
	dc.busyUntil = start + lat
	return start + lat
}

// Handle processes a message delivered to this node's directory. It owns
// m: the message stays alive across the controller-occupancy delay and is
// released once its handler completes (onAckDone keeps it longer across
// CLB-stall retries).
func (dc *DirController) Handle(m *msg.Message) {
	switch m.Type {
	case msg.GETS, msg.GETX, msg.PUTX, msg.AckDone:
	default:
		panic(fmt.Sprintf("protocol: directory got %v", m))
	}
	if m.Corrupted {
		// Detected by the memory controller's error-detecting code; the
		// writeback data must not be absorbed. The evictor's timeout (it
		// never gets a WBAck) or the validation watchdog converts the
		// loss into a recovery.
		msg.Release(m)
		return
	}
	dc.stats.Requests++
	dc.occupyArg(sim.Time(dc.p.DirAccessCycles), dc.dispatchFn, m)
}

// dispatch runs once the controller-occupancy delay elapsed.
//
//snvet:alloc-free
func (dc *DirController) dispatch(a any) {
	m := a.(*msg.Message)
	if m.Epoch != dc.nw.Epoch() {
		msg.Release(m)
		return // request predates a recovery
	}
	switch m.Type {
	case msg.GETS:
		dc.onGETS(m)
	case msg.GETX:
		dc.onGETX(m)
	case msg.PUTX:
		dc.onPUTX(m)
	case msg.AckDone:
		dc.onAckDone(m) // releases m on its terminal paths
		return
	}
	msg.Release(m)
}

func (dc *DirController) nack(m *msg.Message) {
	dc.stats.Nacks++
	n := msg.Alloc()
	*n = msg.Message{Type: msg.NackReq, Src: dc.node, Dst: m.Src, Addr: m.Addr, Txn: m.Txn}
	dc.nw.Send(n)
}

//snvet:alloc-free
func (dc *DirController) onGETS(m *msg.Message) {
	e := dc.entry(m.Addr)
	if e.busy {
		dc.nack(m)
		return
	}
	if e.owner == MemOwner {
		// 2-hop: memory supplies a shared copy. Adding a sharer is not
		// an update-action (a stale sharer bit is always safe), so
		// nothing is logged and no final acknowledgment is needed. The
		// entry stays busy until the data leaves, so a racing GETX
		// cannot slip an invalidation ahead of the response.
		e.sharers |= sharerBit(m.Src)
		e.busy = true
		cn := msg.Null
		if dc.sn {
			cn = core.UpdatedCN(dc.ccn)
		}
		dc.stats.MemReads++
		dc.reply(memReply{typ: msg.Data, dst: m.Src, addr: m.Addr, txn: m.Txn, cn: cn, gets: e})
		return
	}
	// 3-hop: forward to the owning cache (which may be the requestor
	// itself if its copy sits in a writeback buffer).
	e.busy = true
	e.pend = pending{typ: msg.GETS, requestor: m.Src, txn: m.Txn, startCCN: dc.ccn}
	dc.busy.Add(dc.ccn)
	dc.stats.Forwards++
	resp := msg.Alloc()
	*resp = msg.Message{
		Type: msg.FwdGETS, Src: dc.node, Dst: e.owner, Addr: m.Addr,
		Requestor: m.Src, Txn: m.Txn,
	}
	dc.nw.Send(resp)
}

//snvet:alloc-free
func (dc *DirController) onGETX(m *msg.Message) {
	e := dc.entry(m.Addr)
	if e.busy {
		dc.nack(m)
		return
	}
	if dc.sn && dc.clb.Full() {
		// The ownership change will need a log entry; refuse rather than
		// risk losing it (SafetyNet protocol change #2).
		dc.nack(m)
		return
	}
	req := m.Src
	others := e.sharers &^ sharerBit(req)
	ackCount := popcount(others)
	e.busy = true
	e.pend = pending{typ: msg.GETX, requestor: req, txn: m.Txn, startCCN: dc.ccn}
	dc.busy.Add(dc.ccn)
	for s := 0; s < dc.p.NumNodes; s++ {
		if others&sharerBit(s) != 0 {
			resp := msg.Alloc()
			*resp = msg.Message{
				Type: msg.Inv, Src: dc.node, Dst: s, Addr: m.Addr,
				Requestor: req, Txn: m.Txn,
			}
			dc.nw.Send(resp)
		}
	}
	cn := msg.Null
	if dc.sn {
		cn = core.UpdatedCN(dc.ccn)
	}
	switch {
	case e.owner == MemOwner && e.sharers&sharerBit(req) != 0 && m.HaveData:
		// Upgrade: the requestor attests it holds the data; grant
		// permission only then — the sharer bit alone may be a stale
		// superset left by a silent eviction or a recovery.
		resp := msg.Alloc()
		*resp = msg.Message{
			Type: msg.AckCount, Src: dc.node, Dst: req, Addr: m.Addr,
			CN: cn, AckCount: ackCount, Txn: m.Txn,
		}
		dc.nw.Send(resp)
	case e.owner == MemOwner:
		dc.stats.MemReads++
		dc.reply(memReply{typ: msg.DataEx, dst: req, addr: m.Addr, txn: m.Txn, cn: cn, ackCount: ackCount})
	case e.owner == req:
		// The owner upgrades O -> M: it has the data; kill the sharers.
		resp := msg.Alloc()
		*resp = msg.Message{
			Type: msg.AckCount, Src: dc.node, Dst: req, Addr: m.Addr,
			CN: cn, AckCount: ackCount, Txn: m.Txn,
		}
		dc.nw.Send(resp)
	default:
		dc.stats.Forwards++
		resp := msg.Alloc()
		*resp = msg.Message{
			Type: msg.FwdGETX, Src: dc.node, Dst: e.owner, Addr: m.Addr,
			Requestor: req, AckCount: ackCount, Txn: m.Txn,
		}
		dc.nw.Send(resp)
	}
}

//snvet:alloc-free
func (dc *DirController) onPUTX(m *msg.Message) {
	e := dc.entry(m.Addr)
	switch {
	case e.busy:
		dc.nack(m)
	case e.owner != m.Src:
		// The writeback lost a race: ownership already moved through a
		// forwarded request the evictor answered from its buffer.
		resp := msg.Alloc()
		*resp = msg.Message{Type: msg.WBStale, Src: dc.node, Dst: m.Src, Addr: m.Addr, Txn: m.Txn}
		dc.nw.Send(resp)
	default:
		if dc.sn && dc.clb.Full() {
			dc.nack(m)
			return
		}
		if dc.sn {
			dc.logEntry(core.Entry{
				Addr: m.Addr, Tag: m.CN,
				OldData: dc.MemData(m.Addr), OldCN: e.cn,
				MemEntry: true, OldOwner: e.owner, OldSharers: e.sharers,
				HadData: true, Transfer: true,
			})
			e.cn = m.CN
		}
		dc.mem[m.Addr] = m.Data //snvet:alloc-ok amortized: one entry per block ever written back
		dc.stats.MemWrites++
		e.owner = MemOwner
		dc.reply(memReply{typ: msg.WBAck, dst: m.Src, addr: m.Addr, txn: m.Txn})
	}
}

// onAckDone closes a transaction: the deferred directory change applies,
// tagged with the transaction's point-of-atomicity CN carried by the
// acknowledgment (SafetyNet protocol change #3).
//
//snvet:alloc-free
func (dc *DirController) onAckDone(m *msg.Message) {
	e := dc.entry(m.Addr)
	if !e.busy || e.pend.txn != m.Txn {
		msg.Release(m)
		return // duplicate or superseded
	}
	if e.pend.typ == msg.GETX {
		if dc.sn {
			if dc.clb.Full() {
				// The entry change must be logged; hold the completion
				// (and m) until validation frees space.
				dc.stats.CLBStallCycles += clbRetryCycles
				dc.eng.AfterArg(clbRetryCycles, dc.ackDoneRetryFn, m)
				return
			}
			dc.logEntry(core.Entry{
				Addr: m.Addr, Tag: m.CN,
				OldData: dc.MemData(m.Addr), OldCN: e.cn,
				MemEntry: true, OldOwner: e.owner, OldSharers: e.sharers,
				Transfer: true,
			})
			e.cn = m.CN
		}
		e.owner = e.pend.requestor
		e.sharers = 0
	} else {
		// 3-hop GETS: the requestor became a sharer; the previous owner
		// keeps ownership (M -> O happened at the owner). A sharer
		// addition needs no log.
		e.sharers |= sharerBit(e.pend.requestor)
	}
	e.busy = false
	dc.busy.Done(e.pend.startCCN)
	e.pend = pending{}
	msg.Release(m)
	if dc.OnReadyChange != nil {
		dc.OnReadyChange()
	}
}

// retryAckDone resumes an AckDone stalled on a full CLB, unless a
// recovery voided it.
func (dc *DirController) retryAckDone(a any) {
	m := a.(*msg.Message)
	if m.Epoch != dc.nw.Epoch() {
		msg.Release(m)
		return
	}
	dc.onAckDone(m)
}

func (dc *DirController) logEntry(e core.Entry) {
	if !dc.clb.Append(e) {
		panic("protocol: directory logged into a full CLB (caller must check)")
	}
}

// Recover rolls the directory and memory image back to checkpoint rpcn:
// discard busy transaction state and unroll the memory-side CLB in
// reverse (paper §3.6: "memories sequentially undo the actions in their
// CLBs"). It returns the number of entries unrolled.
func (dc *DirController) Recover(rpcn msg.CN) int {
	for _, e := range dc.entries {
		e.busy = false
		e.pend = pending{}
	}
	dc.busy.Reset()
	n := 0
	if dc.clb != nil {
		n = dc.clb.Unroll(func(e core.Entry) {
			de := dc.entry(e.Addr)
			if e.HadData {
				dc.mem[e.Addr] = e.OldData
			}
			de.owner = e.OldOwner
			de.sharers = e.OldSharers
			de.cn = e.OldCN
		})
	}
	dc.ccn = rpcn
	return n
}
