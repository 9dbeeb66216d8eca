package core

import (
	"safetynet/internal/sim"
)

// Clock is the loosely synchronized checkpoint clock (paper §3.2). Every
// interval it delivers an edge to each node; nodes may observe the edge
// with a fixed per-node skew, which is valid as a logical time base as
// long as every skew difference stays below the minimum network latency
// (no message can then travel backward in logical time).
//
// Edges are suppressed while the pause predicate reports true: the system
// does not create checkpoints while it is recovering.
type Clock struct {
	eng      *sim.Engine
	interval sim.Time
	skew     []sim.Time
	onEdge   []func()
	// edge[n] is node n's edge event, bound once by Start so that an
	// edge allocates nothing; next[n] is the time it fires next.
	edge    []sim.Event
	next    []sim.Time
	paused  func() bool
	edges   uint64
	started bool
}

// NewClock builds a clock ticking every interval on eng. skew[n] is node
// n's fixed observation offset (may be nil for zero skew everywhere).
// paused may be nil.
func NewClock(eng *sim.Engine, interval sim.Time, nodes int, skew []sim.Time, paused func() bool) *Clock {
	if interval == 0 {
		panic("core: zero checkpoint interval")
	}
	if skew == nil {
		skew = make([]sim.Time, nodes)
	}
	if len(skew) != nodes {
		panic("core: skew vector length mismatch")
	}
	for _, s := range skew {
		if s >= interval {
			panic("core: skew must be below the checkpoint interval")
		}
	}
	return &Clock{
		eng:      eng,
		interval: interval,
		skew:     skew,
		onEdge:   make([]func(), nodes),
		paused:   paused,
	}
}

// OnEdge registers node n's edge callback (checkpoint creation).
func (c *Clock) OnEdge(n int, f func()) { c.onEdge[n] = f }

// Edges returns the number of edge deliveries (all nodes summed).
func (c *Clock) Edges() uint64 { return c.edges }

// Start arms the recurring per-node edge events. The first edge fires at
// interval+skew[n]; time zero is checkpoint 1 by construction.
func (c *Clock) Start() {
	if c.started {
		panic("core: clock started twice")
	}
	c.started = true
	c.edge = make([]sim.Event, len(c.onEdge))
	c.next = make([]sim.Time, len(c.onEdge))
	for n := range c.onEdge {
		c.edge[n] = func() { c.fire(n) }
		c.next[n] = c.interval + c.skew[n]
		c.arm(n)
	}
}

// fire delivers node n's edge unless paused, then arms the next one.
func (c *Clock) fire(n int) {
	if c.paused == nil || !c.paused() {
		c.edges++
		if c.onEdge[n] != nil {
			c.onEdge[n]()
		}
	}
	c.next[n] += c.interval
	c.arm(n)
}

// arm schedules node n's next edge in n's own context, so every node's
// edges order as that node's events.
func (c *Clock) arm(n int) {
	prev := c.eng.SetOwner(n)
	c.eng.Schedule(c.next[n], c.edge[n])
	c.eng.SetOwner(prev)
}
