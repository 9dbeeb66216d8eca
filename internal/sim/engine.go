// Package sim provides the deterministic discrete-event simulation engine
// that drives every timed component in the SafetyNet model: processors,
// cache and directory controllers, network switches, the checkpoint clock,
// and the service controllers.
//
// The engine is single-threaded and fully deterministic. Events within one
// cycle fire in (owner, class, key) order, where the owner is the node the
// event belongs to (-1 for global events), the class separates node-local
// schedules from cross-node posts, and the key is a per-owner sequence
// number. Ownerless workloads — everything scheduled while the current
// owner is -1 — degenerate to plain FIFO-within-cycle order, so components
// that never annotate owners keep the engine's historical behavior.
// Because every part of the key is intrinsic to the scheduling site (never
// derived from arrival order at a queue), the order is identical whether
// the events run on one engine or on the sharded engine's partitioned
// queues; that is the determinism contract that makes sharded runs
// byte-identical to the sequential oracle. Determinism matters here beyond
// reproducibility — SafetyNet recovery re-executes work from a restored
// checkpoint, and the tests compare re-executed state against reference
// executions.
//
// Internally the queue is a calendar (timing-wheel) queue: one bucket per
// cycle over a wheelSize-cycle window, with a binary min-heap overflow for
// events beyond the horizon. Events live in value-typed slots recycled
// through a free list, so steady-state scheduling performs no heap
// allocation. Cancellation uses generation-counted handles, and a
// cancelled event leaves the queue at once — unlinked from its bucket or
// deleted from the overflow heap — so the queue holds only live events.
package sim

import "fmt"

// Time is the simulation clock in processor cycles (1 cycle = 1 ns at the
// paper's 1 GHz target frequency).
type Time uint64

// Event is a callback scheduled to fire at a specific cycle.
type Event func()

// wheelBits sizes the calendar window. The window must comfortably cover
// the common event horizon (cache latencies, link serialization, directory
// occupancy — all well under a few thousand cycles); only long timers
// (transaction timeouts, checkpoint edges, watchdogs) spill into the
// overflow heap.
const (
	wheelBits = 13
	wheelSize = Time(1) << wheelBits
	wheelMask = wheelSize - 1
)

// slot is one pending event. Slots are stored by value in a grow-only
// arena and recycled through a free list; gen counts reuses so stale
// Cancelers become harmless no-ops. hidx is the slot's position in the
// overflow heap, kept current by the sift routines, or -1 while the event
// sits in a wheel bucket: it lets Cancel take the event out of whichever
// structure holds it and free the slot at once.
type slot struct {
	fn    Event
	afn   func(any)
	arg   any
	at    Time
	key   uint64
	owner int32
	next  int32
	gen   uint32
	hidx  int32
}

// bucket is a key-ordered list of slots for one cycle, linked through
// slot.next.
type bucket struct{ head, tail int32 }

// ovEntry is an overflow-heap element ordered by (at, owner, key).
type ovEntry struct {
	at    Time
	key   uint64
	idx   int32
	owner int32
}

// remoteClass marks keys of cross-node posts: within one (cycle, owner)
// all node-local schedules order before all posts, and posts order among
// themselves by (source owner, per-source post sequence) — both intrinsic
// to the sending site, so the order cannot depend on shard layout.
const remoteClass = uint64(1) << 63

// remoteKey packs a post's ordering key from its source owner and the
// source's post sequence number. 19 bits of source (up to 512K nodes)
// over 44 bits of sequence; either overflowing is beyond any plausible
// simulation length.
func remoteKey(src int32, seq uint64) uint64 {
	return remoteClass | uint64(uint32(src+1))<<44 | seq
}

// keyLess orders two events within one cycle. The global owner (-1)
// sorts first; uint32 conversion maps -1 below every real node.
func keyLess(o1 int32, k1 uint64, o2 int32, k2 uint64) bool {
	if o1 != o2 {
		return uint32(o1+1) < uint32(o2+1)
	}
	return k1 < k2
}

// eventLess is keyLess extended with the cycle.
func eventLess(a1 Time, o1 int32, k1 uint64, a2 Time, o2 int32, k2 uint64) bool {
	if a1 != a2 {
		return a1 < a2
	}
	return keyLess(o1, k1, o2, k2)
}

// ownerCtr holds one owner's key counters: local counts ordinary
// schedules made while that owner executes, remote counts its cross-node
// posts.
type ownerCtr struct{ local, remote uint64 }

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	stopped bool
	// Executed counts events dispatched since construction; useful for
	// detecting livelock in stress tests.
	executed uint64

	// curOwner is the owner of the currently dispatching event (-1
	// between events and for setup code); schedules inherit it.
	curOwner int32
	// owners holds per-owner key counters, indexed by owner+1 and grown
	// on demand.
	owners []ownerCtr

	// base is the wheel window start: every pending event with
	// at < base+wheelSize sits in buckets, everything later in overflow.
	// All buckets before base are empty, and user code only ever runs
	// with now == base (during dispatch) or now >= base (between runs),
	// so two pending wheel events can never collide modulo wheelSize.
	base       Time
	buckets    []bucket
	wheelCount int
	overflow   []ovEntry
	pending    int

	slots []slot
	free  int32 // free-list head, -1 when empty

	// pk* cache the earliest pending event's key between peeks; the
	// sharded engine's merged executor peeks every shard per dispatch,
	// and the cache keeps that O(1) for shards whose head is far away.
	pkValid bool
	pkAt    Time
	pkOwner int32
	pkKey   uint64
}

// NewEngine returns an engine with an empty event queue at cycle 0.
func NewEngine() *Engine {
	e := &Engine{
		buckets:  make([]bucket, wheelSize),
		free:     -1,
		curOwner: -1,
	}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: -1, tail: -1}
	}
	return e
}

// SetOwner sets the owner attributed to subsequent schedules and returns
// the previous owner. Construction and start-up code brackets per-node
// setup with it; during dispatch the engine tracks the executing event's
// owner automatically. Owner -1 means global.
func (e *Engine) SetOwner(owner int) int {
	prev := e.curOwner
	e.curOwner = int32(owner)
	return int(prev)
}

// Owner returns the owner currently attributed to schedules.
func (e *Engine) Owner() int { return int(e.curOwner) }

func (e *Engine) ctr(owner int32) *ownerCtr {
	oi := int(owner) + 1
	for oi >= len(e.owners) {
		e.owners = append(e.owners, ownerCtr{})
	}
	return &e.owners[oi]
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

//snvet:alloc-free
func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		i := e.free
		e.free = e.slots[i].next
		return i
	}
	e.slots = append(e.slots, slot{}) //snvet:alloc-ok amortized slot-pool growth; steady state reuses the free list
	return int32(len(e.slots) - 1)
}

//snvet:alloc-free
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.gen++
	s.fn, s.afn, s.arg = nil, nil, nil
	s.next = e.free
	e.free = i
}

// bucketInsert places slot i into its cycle bucket in key order. The
// common case — ascending keys, e.g. a single owner scheduling in
// program order — appends at the tail in O(1).
//
//snvet:alloc-free
func (e *Engine) bucketInsert(b *bucket, i int32) {
	s := &e.slots[i]
	s.next = -1
	if b.tail < 0 {
		b.head, b.tail = i, i
		return
	}
	if t := &e.slots[b.tail]; keyLess(t.owner, t.key, s.owner, s.key) {
		t.next = i
		b.tail = i
		return
	}
	if h := &e.slots[b.head]; keyLess(s.owner, s.key, h.owner, h.key) {
		s.next = b.head
		b.head = i
		return
	}
	prev := b.head
	for {
		nx := e.slots[prev].next
		if nx < 0 {
			e.slots[prev].next = i
			b.tail = i
			return
		}
		if n := &e.slots[nx]; keyLess(s.owner, s.key, n.owner, n.key) {
			s.next = nx
			e.slots[prev].next = i
			return
		}
		prev = nx
	}
}

// bucketUnlink removes slot i from bucket b. A bucket holds one cycle's
// events, so the walk to i's predecessor is short.
//
//snvet:alloc-free
func (e *Engine) bucketUnlink(b *bucket, i int32) {
	next := e.slots[i].next
	if b.head == i {
		b.head = next
		if next < 0 {
			b.tail = -1
		}
		return
	}
	prev := b.head
	for e.slots[prev].next != i {
		prev = e.slots[prev].next
	}
	e.slots[prev].next = next
	if b.tail == i {
		b.tail = prev
	}
}

// enqueue places an already-filled slot into the wheel or the overflow.
//
//snvet:alloc-free
func (e *Engine) enqueue(i int32) {
	s := &e.slots[i]
	if e.pkValid && eventLess(s.at, s.owner, s.key, e.pkAt, e.pkOwner, e.pkKey) {
		e.pkValid = false
	}
	if s.at < e.base+wheelSize {
		s.hidx = -1
		e.bucketInsert(&e.buckets[s.at&wheelMask], i)
		e.wheelCount++
	} else {
		e.ovPush(ovEntry{at: s.at, owner: s.owner, key: s.key, idx: i})
	}
	e.pending++
}

//snvet:alloc-free
func (e *Engine) schedule(at Time, fn Event, afn func(any), arg any) int32 {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	owner := e.curOwner
	c := e.ctr(owner)
	i := e.allocSlot()
	s := &e.slots[i]
	s.fn, s.afn, s.arg = fn, afn, arg
	s.at, s.owner, s.key = at, owner, c.local
	c.local++
	e.enqueue(i)
	return i
}

// post schedules a cross-node event: it runs in owner's context but its
// key is derived from the sending owner's post counter, making the
// within-cycle order shard-layout-invariant.
//
//snvet:alloc-free
func (e *Engine) post(at Time, owner int32, afn func(any), arg any) {
	e.enqueueKeyed(at, owner, e.nextRemoteKey(), nil, afn, arg)
}

// nextRemoteKey consumes the current owner's next post key.
func (e *Engine) nextRemoteKey() uint64 {
	c := e.ctr(e.curOwner)
	k := remoteKey(e.curOwner, c.remote)
	c.remote++
	return k
}

// enqueueKeyed schedules an event carrying a pre-assigned (owner, key);
// the sharded engine's inbox drain uses it to apply cross-shard handoffs
// with the keys their senders computed.
//
//snvet:alloc-free
func (e *Engine) enqueueKeyed(at Time, owner int32, key uint64, fn Event, afn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: post at %d before now %d", at, e.now))
	}
	i := e.allocSlot()
	s := &e.slots[i]
	s.fn, s.afn, s.arg = fn, afn, arg
	s.at, s.owner, s.key = at, owner, key
	e.enqueue(i)
}

// Schedule registers fn to run at absolute cycle at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would corrupt the checkpoint-coordination logic.
//
//snvet:alloc-free
func (e *Engine) Schedule(at Time, fn Event) {
	e.schedule(at, fn, nil, nil)
}

// After schedules fn to run delay cycles from now.
//
//snvet:alloc-free
func (e *Engine) After(delay Time, fn Event) {
	e.schedule(e.now+delay, fn, nil, nil)
}

// ScheduleArg registers fn to run at absolute cycle at with arg. Passing
// a long-lived func value plus a pointer-typed arg avoids the closure
// allocation Schedule would need; the network's per-hop traversal uses it.
//
//snvet:alloc-free
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) {
	e.schedule(at, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run delay cycles from now.
//
//snvet:alloc-free
func (e *Engine) AfterArg(delay Time, fn func(any), arg any) {
	e.schedule(e.now+delay, nil, fn, arg)
}

// Canceler takes a previously scheduled event out of the queue. The zero
// value is valid and cancels nothing; calling Cancel after the event has
// fired (or twice) is a harmless no-op — the generation count makes stale
// handles inert.
type Canceler struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel removes the event from the queue and recycles its slot at once,
// so it never fires and no longer counts in Pending: an event beyond the
// calendar window is deleted from the overflow heap in O(log n), one
// inside it is unlinked from its cycle's bucket. Safe on the zero value,
// after the event fired, and twice.
//
//snvet:alloc-free
func (c Canceler) Cancel() {
	if c.e == nil {
		return
	}
	e := c.e
	s := &e.slots[c.idx]
	if s.gen != c.gen {
		return // already fired, cancelled, drained, or slot reused
	}
	if e.pkValid && s.owner == e.pkOwner && s.key == e.pkKey {
		e.pkValid = false // (owner, key) is unique among pending events
	}
	if s.hidx >= 0 {
		e.ovRemove(int(s.hidx))
	} else {
		e.bucketUnlink(&e.buckets[s.at&wheelMask], c.idx)
		e.wheelCount--
	}
	e.pending--
	e.freeSlot(c.idx)
}

// ScheduleCancelable is like Schedule but returns a Canceler whose Cancel
// takes the event out of the queue at once. It is used for timeout
// events that are usually cancelled (transaction timeouts fire only when
// a fault ate the response), so a cancelled timeout leaves nothing behind
// to migrate or dispatch.
func (e *Engine) ScheduleCancelable(at Time, fn Event) Canceler {
	i := e.schedule(at, fn, nil, nil)
	return Canceler{e: e, idx: i, gen: e.slots[i].gen}
}

// ScheduleCancelableArg is ScheduleCancelable for a long-lived func(any)
// and its argument, so arming a per-transaction timeout allocates no
// closure; cancelling it dequeues the event at once, as Cancel describes.
//
//snvet:alloc-free
func (e *Engine) ScheduleCancelableArg(at Time, fn func(any), arg any) Canceler {
	i := e.schedule(at, nil, fn, arg)
	return Canceler{e: e, idx: i, gen: e.slots[i].gen}
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// ovSet stores v at overflow-heap position i and records the position in
// v's slot.
//
//snvet:alloc-free
func (e *Engine) ovSet(i int, v ovEntry) {
	e.overflow[i] = v
	e.slots[v.idx].hidx = int32(i)
}

// ovUp moves the entry at heap position i toward the root until the heap
// order holds.
//
//snvet:alloc-free
func (e *Engine) ovUp(i int) {
	h := e.overflow
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ovLess(v, h[p]) {
			break
		}
		e.ovSet(i, h[p])
		i = p
	}
	e.ovSet(i, v)
}

// ovDown moves the entry at heap position i toward the leaves until the
// heap order holds.
//
//snvet:alloc-free
func (e *Engine) ovDown(i int) {
	h := e.overflow
	n := len(h)
	v := h[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && ovLess(h[r], h[m]) {
			m = r
		}
		if !ovLess(h[m], v) {
			break
		}
		e.ovSet(i, h[m])
		i = m
	}
	e.ovSet(i, v)
}

// ovPush inserts an entry into the overflow min-heap.
//
//snvet:alloc-free
func (e *Engine) ovPush(v ovEntry) {
	e.overflow = append(e.overflow, v) //snvet:alloc-ok amortized overflow-heap growth
	e.ovUp(len(e.overflow) - 1)
}

// ovRemove deletes the entry at heap position i — the minimum when i is
// 0, any position for a cancelled event — and returns its slot index.
//
//snvet:alloc-free
func (e *Engine) ovRemove(i int) int32 {
	h := e.overflow
	idx := h[i].idx
	n := len(h) - 1
	last := h[n]
	e.overflow = h[:n]
	if i < n {
		h[i] = last // the sift records last's final position
		if i > 0 && ovLess(last, h[(i-1)/2]) {
			e.ovUp(i)
		} else {
			e.ovDown(i)
		}
	}
	return idx
}

func ovLess(a, b ovEntry) bool {
	return eventLess(a.at, a.owner, a.key, b.at, b.owner, b.key)
}

// migrate moves every overflow event inside the current wheel window into
// its bucket; ordered bucket insertion restores the within-cycle key
// order regardless of interleaving with directly scheduled events.
func (e *Engine) migrate() {
	horizon := e.base + wheelSize
	for len(e.overflow) > 0 && e.overflow[0].at < horizon {
		i := e.ovRemove(0)
		e.slots[i].hidx = -1
		e.bucketInsert(&e.buckets[e.slots[i].at&wheelMask], i)
		e.wheelCount++
	}
}

// Run dispatches events in time order until the queue empties, Stop is
// called, or the clock would pass until. Events scheduled exactly at until
// still run. It returns the time of the last dispatched event (or the
// starting time if nothing ran).
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	e.pkValid = false
	for e.pending > 0 && !e.stopped {
		if e.wheelCount == 0 {
			// Nothing inside the window: jump straight to the earliest
			// overflow event and re-base the wheel there.
			if e.overflow[0].at > until {
				break
			}
			e.base = e.overflow[0].at
			e.migrate()
		}
		if e.base > until {
			break
		}
		b := &e.buckets[e.base&wheelMask]
		for b.head >= 0 && !e.stopped {
			i := b.head
			s := &e.slots[i]
			b.head = s.next
			if b.head < 0 {
				b.tail = -1
			}
			e.wheelCount--
			e.pending--
			at, owner := s.at, s.owner
			fn, afn, arg := s.fn, s.afn, s.arg
			e.freeSlot(i)
			e.now = at
			e.curOwner = owner
			e.executed++
			if fn != nil {
				fn()
			} else {
				afn(arg)
			}
		}
		if e.stopped {
			break
		}
		if e.base >= until {
			// The until-cycle bucket is exhausted. Stop without advancing
			// base past until: user code between runs must always observe
			// base <= now, or events scheduled at exactly Now() would land
			// in a bucket the window already passed.
			break
		}
		if e.pending > 0 {
			// This cycle is exhausted; slide the window forward one cycle
			// and pull in any overflow event that just entered it.
			e.base++
			if len(e.overflow) > 0 && e.overflow[0].at < e.base+wheelSize {
				e.migrate()
			}
		}
	}
	if e.now < until && !e.stopped {
		// No event remains at or before until (the queue is empty or its
		// head lies beyond); advance the clock so callers observe that
		// the interval elapsed.
		e.now = until
	}
	if e.wheelCount == 0 && e.base < e.now {
		// Keep the window anchored at the clock so freshly scheduled
		// near-term events land in buckets rather than the overflow —
		// and pull in overflow events the raised horizon now covers, so
		// later same-cycle schedules keep their FIFO position behind them.
		e.base = e.now
		e.migrate()
	}
	e.curOwner = -1
	return e.now
}

// AdvanceTo moves the clock to t without dispatching; t must not precede
// now and no pending event may precede t. The sharded engine uses it to
// keep every shard's notion of "now" aligned during merged execution and
// when fast-forwarding empty queues.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: advance to %d before now %d", t, e.now))
	}
	e.now = t
	if e.wheelCount == 0 && e.base < t {
		e.base = t
		if len(e.overflow) > 0 && e.overflow[0].at < e.base+wheelSize {
			e.migrate()
		}
	}
}

// peek returns the (cycle, owner, key) of the earliest pending event
// without dispatching it. Every queued event is live, so that is the head
// of the first non-empty bucket, or the overflow minimum when the wheel
// is empty. The result is cached until a mutation could change it.
func (e *Engine) peek() (at Time, owner int32, key uint64, ok bool) {
	if e.pkValid {
		return e.pkAt, e.pkOwner, e.pkKey, true
	}
	switch {
	case e.wheelCount > 0:
		c := e.base
		for e.buckets[c&wheelMask].head < 0 {
			c++
		}
		s := &e.slots[e.buckets[c&wheelMask].head]
		at, owner, key = s.at, s.owner, s.key
	case len(e.overflow) > 0:
		v := &e.overflow[0]
		at, owner, key = v.at, v.owner, v.key
	default:
		return 0, 0, 0, false
	}
	e.pkValid, e.pkAt, e.pkOwner, e.pkKey = true, at, owner, key
	return at, owner, key, true
}

// stepOne dispatches exactly the earliest pending event (the one peek
// reports). The merged executor interleaves stepOne across shards in
// global key order.
func (e *Engine) stepOne() {
	at, _, _, ok := e.peek()
	if !ok {
		return
	}
	e.pkValid = false
	if at > e.base {
		// Buckets before at are empty (peek verified); slide the window
		// and pull overflow events the new horizon covers.
		e.base = at
		e.migrate()
	}
	b := &e.buckets[at&wheelMask]
	i := b.head
	s := &e.slots[i]
	e.bucketUnlink(b, i)
	e.wheelCount--
	e.pending--
	owner := s.owner
	fn, afn, arg := s.fn, s.afn, s.arg
	e.freeSlot(i)
	e.now = at
	e.curOwner = owner
	e.executed++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Drain discards every pending event. SafetyNet recovery uses this to model
// draining the interconnect and discarding in-flight transaction state;
// callers must immediately reschedule the periodic machinery (checkpoint
// clock, processor restart) afterwards.
func (e *Engine) Drain() {
	if e.wheelCount > 0 {
		for bi := range e.buckets {
			b := &e.buckets[bi]
			for b.head >= 0 {
				i := b.head
				b.head = e.slots[i].next
				e.freeSlot(i)
			}
			b.tail = -1
		}
		e.wheelCount = 0
	}
	for _, v := range e.overflow {
		e.freeSlot(v.idx)
	}
	e.overflow = e.overflow[:0]
	e.pending = 0
	e.base = e.now
	e.pkValid = false
}
