// Package network models the 2D-torus interconnection network: source
// routing over half-switches, per-link bandwidth and contention, and
// store-and-forward hop timing. Each coherence message sent asks the
// network's fault.Injector which armed message-level faults fire on it;
// a killed half-switch (fault.KillSwitch) loses every message that reaches
// it afterwards.
//
// A hop from one node's half-switch to the next node's is posted into
// the receiving node's context (sim.Engine.Post), so it takes its place
// in the engine's within-cycle order as a cross-node event.
package network

import (
	"fmt"

	"safetynet/internal/config"
	"safetynet/internal/fault"
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

// Stats aggregates network activity. Corrupted, Misrouted and Duplicated
// count the injector's firings.
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
	sent      uint64
	delivered uint64
	bytesSent uint64
	hopsTotal uint64
	dropped   [numDropReasons]uint64
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

	// stepFn/deliverFn/resendFn are bound once so ScheduleArg calls don't
	// allocate a closure per hop or duplicate.
	stepFn    func(any)
	deliverFn func(any)
	resendFn  func(any)
	free      sim.FreeList[transit]

	epoch      int
	recovering bool

	faults    fault.Injector
	dropRules []func(*msg.Message) bool

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
	nw.resendFn = func(a any) { nw.Send(a.(*msg.Message)) }
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

// Faults returns the injector that fault plans arm on; Send asks it about
// every coherence message.
func (nw *Network) Faults() *fault.Injector { return &nw.faults }

// Stats returns a copy of the accumulated statistics.
func (nw *Network) Stats() Stats {
	c := &nw.st
	s := Stats{
		Dropped:    make(map[DropReason]uint64),
		Sent:       c.sent,
		Delivered:  c.delivered,
		Corrupted:  nw.faults.Fired(fault.KindCorruptOnce),
		Misrouted:  nw.faults.Fired(fault.KindMisrouteOnce),
		Duplicated: nw.faults.Fired(fault.KindDuplicateOnce),
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

// AddDropRule installs a predicate consulted at injection, after the
// fault injector; returning true silently drops the message. It is the
// test seam for type-targeted drops (fault plans arm on Faults). Rules are
// responsible for their own arming/disarming state.
func (nw *Network) AddDropRule(f func(*msg.Message) bool) {
	nw.dropRules = append(nw.dropRules, f)
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
	if m.Type.IsCoherence() {
		if eff := nw.faults.Decide(nw.eng.Now(), m.Type.CarriesData()); eff != 0 && nw.inject(m, eff) {
			return
		}
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

// inject applies the faults the injector fired on m and reports whether
// m was lost. A corrupted message is still delivered: the endpoint's
// error-detecting code (the paper's CRC example) discovers the damage. A
// misrouted one reaches the wrong node, which discards it as unexpected,
// and the requestor's timeout converts the loss into a recovery. A
// duplicate is sent one cycle later, and the protocol's transaction
// matching must absorb it.
//
//snvet:alloc-free
func (nw *Network) inject(m *msg.Message, eff fault.Effect) bool {
	if eff&fault.Drop != 0 {
		nw.drop(m, DropInjectedFault)
		return true
	}
	if eff&fault.Corrupt != 0 {
		m.Corrupted = true
		m.Data ^= 0xdeadbeef // the damage an ECC-less endpoint would consume
	}
	if eff&fault.Misroute != 0 {
		m.Dst = (m.Dst + 1) % len(nw.handlers)
	}
	if eff&fault.Duplicate != 0 {
		dup := msg.Alloc()
		*dup = *m
		nw.eng.AfterArg(1, nw.resendFn, dup)
	}
	return false
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

// drop counts m as lost and returns it to the message pool.
//
//snvet:alloc-free
func (nw *Network) drop(m *msg.Message, r DropReason) {
	nw.st.dropped[r]++
	msg.Release(m)
}
