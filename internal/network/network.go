// Package network models the 2D-torus interconnection network: source
// routing over half-switches, per-link bandwidth and contention,
// store-and-forward hop timing, and the two fault classes of the paper's
// running examples — a dropped message (transient) and a killed half-switch
// that loses everything buffered inside it (hard fault).
//
// A hop from one node's half-switch to the next node's is posted into
// the receiving node's context (sim.Engine.Post), so it takes its place
// in the engine's within-cycle order as a cross-node event.
package network

import (
	"fmt"

	"safetynet/internal/config"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

// Handler receives messages delivered to a node's network interface.
type Handler func(*msg.Message)

// DropReason classifies why a message vanished.
type DropReason int

const (
	// DropInjectedFault is a deliberately injected transient loss.
	DropInjectedFault DropReason = iota
	// DropDeadSwitch means the message arrived at a killed half-switch.
	DropDeadSwitch
	// DropStaleEpoch means the message was injected before a recovery and
	// delivered after it; recovery discards all in-flight coherence state.
	DropStaleEpoch
	// DropRecovering means coherence traffic was discarded while the
	// system was recovering.
	DropRecovering
	// DropUnroutable means no route existed (multi-fault partitions).
	DropUnroutable

	numDropReasons = 5
)

// Stats aggregates network activity.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    map[DropReason]uint64
	Corrupted  uint64
	Misrouted  uint64
	Duplicated uint64
	BytesSent  uint64
	HopsTotal  uint64
}

// counters are the network's running totals, from which Stats is built.
type counters struct {
	sent       uint64
	delivered  uint64
	corrupted  uint64
	misrouted  uint64
	duplicated uint64
	bytesSent  uint64
	hopsTotal  uint64
	dropped    [numDropReasons]uint64
}

// transit is the traversal state of one in-flight message: its cached
// route, current position, and per-link serialization cost. Transits are
// recycled through a free list and dispatched through the engine's
// arg-passing scheduler, so a hop costs no allocation.
type transit struct {
	m     *msg.Message
	route []topology.SwitchID
	idx   int
	ser   sim.Time
}

// Network delivers messages between node network interfaces across the
// torus. It is driven entirely by the simulation engine; external callers
// must not use it concurrently.
type Network struct {
	eng      *sim.Engine
	topo     *topology.Torus
	p        config.Params
	handlers []Handler
	// busy holds per-link release times in a dense table indexed by
	// from*nEnt+to over link endpoints (half-switches 0..2N-1, node
	// interfaces 2N..3N-1).
	busy []sim.Time
	nEnt int

	// stepFn/deliverFn are bound once so ScheduleArg calls don't allocate
	// a closure per hop.
	stepFn    func(any)
	deliverFn func(any)
	free      sim.FreeList[transit]

	epoch      int
	recovering bool

	dropRules []func(*msg.Message) bool
	onDrop    func(*msg.Message, DropReason)
	onFault   func(kind string)

	st counters
}

// New builds a network over the given torus on the given engine, using
// the timing parameters in p. Handlers start nil; Attach them before
// sending.
func New(eng *sim.Engine, topo *topology.Torus, p config.Params) *Network {
	n := topo.Nodes()
	nEnt := 3 * n // 2N half-switches + N node interfaces
	nw := &Network{
		eng:      eng,
		topo:     topo,
		p:        p,
		handlers: make([]Handler, n),
		busy:     make([]sim.Time, nEnt*nEnt),
		nEnt:     nEnt,
	}
	nw.stepFn = nw.step
	nw.deliverFn = nw.deliverArg
	return nw
}

// nodeEnt returns the link-endpoint index of node n's network interface.
func (nw *Network) nodeEnt(n int) int { return 2*nw.topo.Nodes() + n }

//snvet:alloc-free
func (nw *Network) releaseTransit(t *transit) {
	t.m, t.route = nil, nil
	nw.free.Put(t)
}

// Attach registers the delivery handler for node n.
func (nw *Network) Attach(n int, h Handler) { nw.handlers[n] = h }

// Topology exposes the underlying torus (for killing switches and
// inspecting reconfiguration).
func (nw *Network) Topology() *topology.Torus { return nw.topo }

// Stats returns a copy of the accumulated statistics.
func (nw *Network) Stats() Stats {
	c := &nw.st
	s := Stats{
		Dropped:    make(map[DropReason]uint64),
		Sent:       c.sent,
		Delivered:  c.delivered,
		Corrupted:  c.corrupted,
		Misrouted:  c.misrouted,
		Duplicated: c.duplicated,
		BytesSent:  c.bytesSent,
		HopsTotal:  c.hopsTotal,
	}
	for r, v := range c.dropped {
		if v != 0 {
			s.Dropped[DropReason(r)] = v
		}
	}
	return s
}

// DroppedTotal sums drops across all reasons.
func (nw *Network) DroppedTotal() uint64 {
	var t uint64
	for _, v := range nw.st.dropped {
		t += v
	}
	return t
}

// Epoch returns the current recovery epoch. Coherence messages injected in
// an earlier epoch are discarded on delivery.
func (nw *Network) Epoch() int { return nw.epoch }

// BumpEpoch starts a new recovery epoch; every in-flight coherence message
// becomes stale. SafetyNet recovery calls this to model draining the
// interconnect (paper §3.6 step one).
func (nw *Network) BumpEpoch() { nw.epoch++ }

// SetRecovering toggles recovery mode: while set, newly injected coherence
// messages are discarded at the source (the protocol is quiesced), while
// system-coordination messages still flow.
func (nw *Network) SetRecovering(r bool) { nw.recovering = r }

// OnDrop installs a callback invoked for every dropped message, after
// statistics are updated. Useful for tests and fault logging.
func (nw *Network) OnDrop(f func(*msg.Message, DropReason)) { nw.onDrop = f }

// OnInjectedFault installs a callback invoked each time an armed fault
// event actually triggers, with the event's stable kind tag (the strings
// match the fault package's kind constants).
func (nw *Network) OnInjectedFault(f func(kind string)) { nw.onFault = f }

// noteFault reports an armed fault triggering.
func (nw *Network) noteFault(kind string) {
	if nw.onFault != nil {
		nw.onFault(kind)
	}
}

// AddDropRule installs a predicate consulted at injection; returning true
// silently drops the message (a transient interconnect fault). Rules are
// responsible for their own arming/disarming state.
func (nw *Network) AddDropRule(f func(*msg.Message) bool) {
	nw.dropRules = append(nw.dropRules, f)
}

// InjectDropEvery arms a periodic transient fault: starting at cycle
// start, the first data-bearing coherence message sent at or after each
// multiple of period is dropped. This reproduces the paper's Experiment 2
// (one dropped message every 100 million cycles = ten per second at 1 GHz).
// It returns a disarm function.
func (nw *Network) InjectDropEvery(start, period sim.Time) func() {
	next := start
	armed := true
	nw.AddDropRule(func(m *msg.Message) bool {
		if !armed || nw.eng.Now() < next || !m.Type.IsCoherence() {
			return false
		}
		if !m.Type.CarriesData() {
			return false // drop a data response: the highest-impact loss
		}
		next = nw.eng.Now() + period
		nw.noteFault("drop-every")
		return true
	})
	return func() { armed = false }
}

// InjectCorruptOnce arms a one-shot corruption fault: the first
// data-bearing coherence message sent at or after cycle at is damaged in
// flight. It is still delivered — the endpoint's error-detecting code
// (the paper's CRC example) discovers the damage and reports the fault.
func (nw *Network) InjectCorruptOnce(at sim.Time) {
	fired := false
	nw.AddDropRule(func(m *msg.Message) bool {
		if fired || nw.eng.Now() < at || !m.Type.IsCoherence() || !m.Type.CarriesData() {
			return false
		}
		fired = true
		m.Corrupted = true
		m.Data ^= 0xdeadbeef // the damage an ECC-less endpoint would consume
		nw.st.corrupted++
		nw.noteFault("corrupt-once")
		return false // delivered, not dropped
	})
}

// InjectMisrouteOnce arms a one-shot misrouting fault (paper §5.1): the
// first data-bearing coherence message sent at or after cycle at is
// delivered to the wrong node. The bogus endpoint discards it as
// unexpected and the true requestor's timeout converts the loss into a
// recovery.
func (nw *Network) InjectMisrouteOnce(at sim.Time) {
	fired := false
	nw.AddDropRule(func(m *msg.Message) bool {
		if fired || nw.eng.Now() < at || !m.Type.IsCoherence() || !m.Type.CarriesData() {
			return false
		}
		fired = true
		m.Dst = (m.Dst + 1) % len(nw.handlers)
		nw.st.misrouted++
		nw.noteFault("misroute-once")
		return false // delivered — to the wrong place
	})
}

// InjectDuplicateOnce arms a one-shot duplication fault (paper §5.1's
// protocol-engine soft fault): the first eligible coherence message sent
// at or after cycle at is delivered twice. The protocol's transaction
// matching must absorb the duplicate.
func (nw *Network) InjectDuplicateOnce(at sim.Time) {
	fired := false
	nw.AddDropRule(func(m *msg.Message) bool {
		if fired || nw.eng.Now() < at || !m.Type.IsCoherence() {
			return false
		}
		fired = true
		nw.st.duplicated++
		nw.noteFault("duplicate-once")
		dup := msg.Alloc()
		*dup = *m
		// Re-inject the duplicate after this send completes; drop rules
		// are consulted again but fired is already set.
		nw.eng.After(1, func() { nw.Send(dup) })
		return false
	})
}

// InjectDropOnce arms a one-shot transient fault at cycle at.
func (nw *Network) InjectDropOnce(at sim.Time) {
	fired := false
	nw.AddDropRule(func(m *msg.Message) bool {
		if fired || nw.eng.Now() < at || !m.Type.IsCoherence() || !m.Type.CarriesData() {
			return false
		}
		fired = true
		nw.noteFault("drop-once")
		return true
	})
}

// KillSwitchAt schedules the hard fault of the paper's Experiment 3: at
// cycle at, half-switch s dies, losing all messages buffered in it (any
// in-flight message that reaches s afterwards is dropped) and forcing
// routes computed later to detour around it.
func (nw *Network) KillSwitchAt(s topology.SwitchID, at sim.Time) {
	nw.eng.Schedule(at, func() {
		nw.topo.Kill(s)
		nw.noteFault("kill-switch")
	})
}

// Send injects m into the network. Delivery is scheduled on the engine;
// the handler of m.Dst eventually receives the message unless a fault, a
// recovery, or a stale epoch eats it. Send runs in the scheduling context
// of node m.Src (its own events, or its home service controller's).
//
//snvet:alloc-free
func (nw *Network) Send(m *msg.Message) {
	if nw.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("network: no handler attached to node %d", m.Dst))
	}
	m.Epoch = nw.epoch
	nw.st.sent++
	size := msg.Size(m.Type, nw.p.BlockBytes)
	nw.st.bytesSent += uint64(size)

	if nw.recovering && m.Type.IsCoherence() {
		nw.drop(m, DropRecovering)
		return
	}
	for _, rule := range nw.dropRules {
		if rule(m) {
			nw.drop(m, DropInjectedFault)
			return
		}
	}

	if m.Src == m.Dst {
		// Local traffic bypasses the torus through the node's own
		// network interface.
		nw.eng.AfterArg(sim.Time(nw.p.SwitchHopCycles), nw.deliverFn, m)
		return
	}

	route := nw.topo.Route(m.Src, m.Dst)
	if route == nil {
		nw.drop(m, DropUnroutable)
		return
	}
	ser := sim.Time(nw.p.SerializationCycles(size))
	t := nw.free.Get()
	t.m, t.route, t.idx, t.ser = m, route, 0, ser
	// The first hop enters the source's own half-switch, so it stays in
	// the source's context and schedules directly.
	depart := nw.occupy(nw.nodeEnt(m.Src), int(route[0]), ser)
	arrive := depart + ser + sim.Time(nw.p.SwitchHopCycles)
	nw.eng.ScheduleArg(arrive, nw.stepFn, t)
}

// step runs when a message arrives at its next half-switch (or, once the
// route is exhausted, at the destination's network interface), in the
// context of the node owning the current position. Forwarding to the next
// half-switch crosses nodes, so it is posted into the next node's context.
//
//snvet:alloc-free
func (nw *Network) step(a any) {
	t := a.(*transit)
	if t.idx == len(t.route) {
		m := t.m
		nw.releaseTransit(t)
		nw.deliver(m)
		return
	}
	cur := t.route[t.idx]
	nw.st.hopsTotal++
	if !nw.topo.Alive(cur) {
		m := t.m
		nw.releaseTransit(t)
		nw.drop(m, DropDeadSwitch)
		return
	}
	var to, toNode int
	if t.idx == len(t.route)-1 {
		toNode = t.m.Dst
		to = nw.nodeEnt(toNode)
	} else {
		to = int(t.route[t.idx+1])
		toNode = nw.topo.NodeOf(topology.SwitchID(to))
	}
	depart := nw.occupy(int(cur), to, t.ser)
	arrive := depart + t.ser + sim.Time(nw.p.SwitchHopCycles)
	t.idx++
	nw.eng.Post(toNode, arrive, nw.stepFn, t)
}

// occupy reserves the from->to link for ser cycles starting no earlier
// than now and returns the departure time.
//
//snvet:alloc-free
func (nw *Network) occupy(from, to int, ser sim.Time) sim.Time {
	li := from*nw.nEnt + to
	depart := nw.eng.Now()
	if b := nw.busy[li]; b > depart {
		depart = b
	}
	nw.busy[li] = depart + ser
	return depart
}

// deliverArg adapts deliver to the engine's arg-passing scheduler.
//
//snvet:alloc-free
func (nw *Network) deliverArg(a any) { nw.deliver(a.(*msg.Message)) }

//snvet:alloc-free
func (nw *Network) deliver(m *msg.Message) {
	if m.Type.IsCoherence() {
		if m.Epoch != nw.epoch {
			nw.drop(m, DropStaleEpoch)
			return
		}
		if nw.recovering {
			nw.drop(m, DropRecovering)
			return
		}
	}
	nw.st.delivered++
	// Ownership of m passes to the handler, which releases it (directly
	// or once any deferred processing it schedules completes).
	nw.handlers[m.Dst](m)
}

// drop consumes m: after the callback it returns to the message pool.
//
//snvet:alloc-free
func (nw *Network) drop(m *msg.Message, r DropReason) {
	nw.st.dropped[r]++
	if nw.onDrop != nil {
		nw.onDrop(m, r)
	}
	msg.Release(m)
}
