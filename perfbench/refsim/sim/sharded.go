// Conservative-lookahead parallel execution: ShardedEngine partitions
// event owners (nodes) across K engines — each the unmodified calendar
// queue from engine.go — and advances them in lock-stepped windows of the
// minimum cross-shard scheduling latency. Within a window shards run
// concurrently and never synchronize; a cross-shard post made at cycle t
// lands at t+lookahead or later, which is at or beyond the window's end,
// so buffering posts in per-(src,dst) inboxes and applying them at the
// window barrier loses nothing. Every event carries the intrinsic
// (cycle, owner, class, key) order from engine.go, so the set and order
// of dispatched events — and therefore all simulation results — are
// identical at any shard count, including the sequential oracle.
//
// Global state transitions (recovery quiesce, epoch bumps, crashes) do
// not fit inside a lookahead window: they are either deferred to the next
// barrier via WhenSafe, or — whenever a Hold is in force, e.g. a fault
// plan is armed — the engine drops into merged execution, dispatching all
// shards' events on one goroutine in exact global key order, which equals
// the sequential oracle event-for-event.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Domain is the scheduling domain a simulated system runs on: a single
// Engine or a ShardedEngine. Components hold their own node's concrete
// *Engine for hot-path scheduling; the Domain carries everything that may
// cross nodes.
type Domain interface {
	// Run advances the domain to the given absolute cycle (or until Stop)
	// and returns the reached time, never past until.
	Run(until Time) Time
	// Now returns the committed simulation time. Inside an event, use the
	// owning node's Engine clock instead.
	Now() Time
	// Stop makes Run return; under parallel execution it takes effect at
	// the next window barrier.
	Stop()
	// Stopped reports whether Stop has been called since the last Run.
	Stopped() bool
	// EngineAt returns the engine owning node's events.
	EngineAt(node int) *Engine
	// ShardOf returns the shard index owning node.
	ShardOf(node int) int
	// ShardCount returns the number of shards (1 for a plain Engine).
	ShardCount() int
	// Post schedules afn(arg) at absolute cycle at in node to's context.
	// It must be called from node from's executing context; cross-shard
	// it requires at to lie at or beyond the current window's end (the
	// conservative-lookahead bound).
	Post(from, to int, at Time, afn func(any), arg any)
	// WhenSafe runs fn at a point where it may touch cross-shard state:
	// immediately when execution is sequential or merged, at the next
	// window barrier under parallel execution. owner is the executing
	// node and orders same-barrier deferrals deterministically.
	WhenSafe(owner int, fn func())
	// Hold forces merged (single-goroutine, exact-oracle) execution until
	// a matching Release. Fault plans hold for the whole run: their
	// trigger rules are global "first match" state consulted on every
	// send.
	Hold()
	// Release undoes one Hold.
	Release()
}

// Engine implements Domain as the sequential (and oracle) domain.

// EngineAt returns the engine itself for every node.
func (e *Engine) EngineAt(int) *Engine { return e }

// ShardOf places every node on shard 0.
func (e *Engine) ShardOf(int) int { return 0 }

// ShardCount returns 1.
func (e *Engine) ShardCount() int { return 1 }

// Post schedules afn(arg) at cycle at in node to's context with a
// cross-node key, so sequential and sharded executions order it
// identically.
func (e *Engine) Post(_, to int, at Time, afn func(any), arg any) {
	e.post(at, int32(to), afn, arg)
}

// WhenSafe runs fn immediately: sequential execution is always safe.
func (e *Engine) WhenSafe(_ int, fn func()) { fn() }

// Hold is a no-op on the sequential engine.
func (e *Engine) Hold() {}

// Release is a no-op on the sequential engine.
func (e *Engine) Release() {}

// handoff is one buffered cross-shard post.
type handoff struct {
	at    Time
	key   uint64
	afn   func(any)
	arg   any
	owner int32
}

// deferredCall is one WhenSafe deferral awaiting the next barrier.
type deferredCall struct {
	at    Time
	owner int32
	fn    func()
}

// spinBarrier is a sense-counting barrier. Window barriers fire up to
// ~1M times per simulated second, so parking on channels (µs wakeups)
// would erase the parallel speedup; arriving shards spin briefly and
// yield, which also keeps single-CPU hosts live.
type spinBarrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// ShardedEngine coordinates K engines over a static owner partition.
// Construct with NewShardedEngine, schedule through the per-node engines
// and Post, and drive it with Run. Not safe for concurrent external use;
// like Engine, one goroutine owns the Run loop.
type ShardedEngine struct {
	engs   []*Engine
	assign []int32
	window Time
	now    Time

	holds   int
	stopReq bool

	// parallel marks that shard goroutines are executing a window, so
	// WhenSafe must defer and cross-shard Posts must buffer. It is only
	// written while no shard goroutine runs (barrier-ordered).
	parallel  bool
	curWinEnd Time

	inbox    [][]handoff // [src*K+dst]; src appends, barrier drains
	deferred []deferredCall
	defMu    sync.Mutex

	bar       spinBarrier
	cmdTarget Time
	cmdExit   bool
}

// NewShardedEngine builds a sharded domain over the given node→shard
// assignment. window is the conservative lookahead: the minimum latency
// of any cross-shard Post. Every assignment must be in [0, shards).
func NewShardedEngine(shards int, assign []int32, window Time) *ShardedEngine {
	if shards < 1 {
		panic(fmt.Sprintf("sim: need at least one shard, got %d", shards))
	}
	if window < 1 {
		panic("sim: shard window must be at least one cycle")
	}
	se := &ShardedEngine{
		engs:   make([]*Engine, shards),
		assign: append([]int32(nil), assign...),
		window: window,
		inbox:  make([][]handoff, shards*shards),
	}
	for i := range se.engs {
		se.engs[i] = NewEngine()
	}
	for n, s := range se.assign {
		if int(s) < 0 || int(s) >= shards {
			panic(fmt.Sprintf("sim: node %d assigned to shard %d of %d", n, s, shards))
		}
	}
	return se
}

// Window returns the lock-step window length in cycles.
func (se *ShardedEngine) Window() Time { return se.window }

// Now returns the committed simulation time.
func (se *ShardedEngine) Now() Time { return se.now }

// Stop requests Run to return; it takes effect at the next barrier (or
// immediately between events under merged execution).
func (se *ShardedEngine) Stop() { se.stopReq = true }

// Stopped reports whether Stop has been called since the last Run.
func (se *ShardedEngine) Stopped() bool { return se.stopReq }

// EngineAt returns the engine owning node's events.
func (se *ShardedEngine) EngineAt(node int) *Engine { return se.engs[se.assign[node]] }

// ShardOf returns the shard index owning node.
func (se *ShardedEngine) ShardOf(node int) int { return int(se.assign[node]) }

// ShardCount returns the number of shards.
func (se *ShardedEngine) ShardCount() int { return len(se.engs) }

// Executed sums events dispatched across shards.
func (se *ShardedEngine) Executed() uint64 {
	var t uint64
	for _, e := range se.engs {
		t += e.Executed()
	}
	return t
}

// Pending sums queued events across shards and buffered handoffs.
func (se *ShardedEngine) Pending() int {
	t := 0
	for _, e := range se.engs {
		t += e.Pending()
	}
	for _, ib := range se.inbox {
		t += len(ib)
	}
	return t
}

// Hold forces merged execution until Release.
func (se *ShardedEngine) Hold() { se.holds++ }

// Release undoes one Hold; parallel windows resume at the next boundary.
func (se *ShardedEngine) Release() {
	if se.holds <= 0 {
		panic("sim: Release without Hold")
	}
	se.holds--
}

// Post schedules afn(arg) at cycle at in node to's context. Same-shard
// posts enqueue directly; cross-shard posts buffer in the sender's inbox
// row during parallel windows and apply at the barrier.
func (se *ShardedEngine) Post(from, to int, at Time, afn func(any), arg any) {
	sf, st := se.assign[from], se.assign[to]
	src := se.engs[sf]
	if sf == st || !se.parallel {
		src.ctrPost(se.engs[st], at, int32(to), afn, arg)
		return
	}
	if at < se.curWinEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %d violates the lookahead window ending at %d",
			at, se.curWinEnd))
	}
	k := len(se.engs)
	row := int(sf)*k + int(st)
	se.inbox[row] = append(se.inbox[row], handoff{
		at: at, owner: int32(to), key: src.nextRemoteKey(), afn: afn, arg: arg,
	})
}

// ctrPost consumes src's post key and enqueues on dst (which may be the
// same engine).
func (e *Engine) ctrPost(dst *Engine, at Time, owner int32, afn func(any), arg any) {
	dst.enqueueKeyed(at, owner, e.nextRemoteKey(), nil, afn, arg)
}

// WhenSafe runs fn immediately unless a parallel window is executing, in
// which case it defers fn to the window barrier. Same-barrier deferrals
// run in (registration cycle, owner) order — deterministic and
// shard-count-invariant.
func (se *ShardedEngine) WhenSafe(owner int, fn func()) {
	if !se.parallel {
		fn()
		return
	}
	o := int32(owner)
	if owner < 0 || owner >= len(se.assign) {
		o = 0
	}
	at := se.engs[se.assign[o]].Now()
	se.defMu.Lock()
	se.deferred = append(se.deferred, deferredCall{at: at, owner: o, fn: fn})
	se.defMu.Unlock()
}

// Run advances the domain to until (never past it), switching between
// parallel windows and merged execution as Holds come and go.
func (se *ShardedEngine) Run(until Time) Time {
	se.stopReq = false
	for !se.stopReq && se.now < until {
		if se.holds > 0 {
			se.runMerged(until)
		} else {
			se.runParallel(until)
		}
	}
	return se.now
}

// totalPending reports queued work including buffered handoffs.
func (se *ShardedEngine) totalPending() int {
	t := 0
	for _, e := range se.engs {
		t += e.pending
	}
	for _, ib := range se.inbox {
		t += len(ib)
	}
	return t
}

// runParallel executes lock-stepped windows on one goroutine per shard
// until it reaches until, Stop is requested, or a Hold demands merged
// execution. Window boundaries sit at fixed multiples of the window
// length regardless of how Run calls are strided, so results cannot
// depend on the caller's stepping.
func (se *ShardedEngine) runParallel(until Time) {
	k := len(se.engs)
	se.bar.n = int32(k)
	se.bar.arrived.Store(0)
	se.bar.gen.Store(0)
	var wg sync.WaitGroup
	for s := 1; s < k; s++ {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			for {
				se.bar.wait() // await window command
				if se.cmdExit {
					return
				}
				e.Run(se.cmdTarget)
				se.bar.wait() // window done
			}
		}(se.engs[s])
	}

	for {
		exit := se.stopReq || se.now >= until || se.holds > 0
		if !exit && se.totalPending() == 0 && len(se.deferred) == 0 {
			// Nothing queued anywhere: fast-forward every clock.
			for _, e := range se.engs {
				e.AdvanceTo(until)
			}
			se.now = until
			exit = true
		}
		if exit {
			se.cmdExit = true
			se.parallel = false
			se.bar.wait()
			break
		}
		// se.now is an inclusive frontier: every event at or before it has
		// executed. The next window is the one containing se.now+1, so a
		// run target landing exactly on a window multiple still executes
		// that cycle's events — the sequential oracle's Run is inclusive.
		next := se.now + 1
		winEnd := next/se.window*se.window + se.window
		target := winEnd - 1
		if until < target {
			target = until
		}
		se.cmdTarget, se.cmdExit = target, false
		se.curWinEnd = winEnd
		se.parallel = true
		se.bar.wait() // release shards into the window
		se.engs[0].Run(target)
		se.bar.wait() // all shards done
		// Serial inter-window phase: the workers are parked at the next
		// command barrier, so the coordinator may touch every shard.
		se.parallel = false
		if target == winEnd-1 {
			se.drainInboxes()
			se.runDeferred()
		}
		// Mid-window rests (target < winEnd-1) keep handoffs and deferrals
		// buffered for the barrier a later Run call reaches.
		se.now = target
	}
	wg.Wait()
}

// drainInboxes applies buffered cross-shard handoffs. Keys were computed
// by the senders, so application order is irrelevant: ordered insertion
// reconstructs the global within-cycle order.
func (se *ShardedEngine) drainInboxes() {
	k := len(se.engs)
	for row := range se.inbox {
		ib := se.inbox[row]
		if len(ib) == 0 {
			continue
		}
		dst := se.engs[row%k]
		for i := range ib {
			h := &ib[i]
			dst.enqueueKeyed(h.at, h.owner, h.key, nil, h.afn, h.arg)
			h.afn, h.arg = nil, nil
		}
		se.inbox[row] = ib[:0]
	}
}

// runDeferred executes WhenSafe deferrals registered during the window,
// in (cycle, owner) order, each in its owner's scheduling context.
func (se *ShardedEngine) runDeferred() {
	if len(se.deferred) == 0 {
		return
	}
	calls := se.deferred
	se.deferred = se.deferred[:0]
	sort.SliceStable(calls, func(i, j int) bool {
		if calls[i].at != calls[j].at {
			return calls[i].at < calls[j].at
		}
		return uint32(calls[i].owner+1) < uint32(calls[j].owner+1)
	})
	for i := range calls {
		c := &calls[i]
		e := se.engs[se.assign[c.owner]]
		prev := e.SetOwner(int(c.owner))
		c.fn()
		e.SetOwner(prev)
		c.fn = nil
	}
}

// runMerged dispatches all shards' events on the calling goroutine in
// exact global (cycle, owner, class, key) order — event-for-event equal
// to the sequential oracle. Every engine's clock is advanced to each
// dispatch cycle first, so cross-node reads of Now agree with the oracle.
func (se *ShardedEngine) runMerged(until Time) {
	for !se.stopReq && se.holds > 0 {
		best := -1
		var bAt Time
		var bO int32
		var bK uint64
		for si, e := range se.engs {
			at, o, k, ok := e.peek()
			if !ok {
				continue
			}
			if best < 0 || eventLess(at, o, k, bAt, bO, bK) {
				best, bAt, bO, bK = si, at, o, k
			}
		}
		if best < 0 || bAt > until {
			for _, e := range se.engs {
				e.AdvanceTo(until)
			}
			se.now = until
			return
		}
		for _, e := range se.engs {
			e.AdvanceTo(bAt)
		}
		se.now = bAt
		se.engs[best].stepOne()
	}
}
