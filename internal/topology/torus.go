// Package topology models the paper's interconnect topology: a 2D torus in
// which every switch is split into two half-switches (one carrying
// east-west traffic, one carrying north-south traffic). Each node has
// separate paths to both halves, so a single half-switch failure never
// disconnects a node (paper Table 1, "Failed Switch"); routing simply
// reconfigures around the dead half.
package topology

import "fmt"

// SwitchID identifies one half-switch. Node n owns EW half-switch 2n and
// NS half-switch 2n+1.
type SwitchID int

// Axis says which traffic a half-switch carries.
type Axis int

const (
	// EW half-switches carry traffic along torus rows (the X dimension).
	EW Axis = iota
	// NS half-switches carry traffic along torus columns (the Y dimension).
	NS
)

// Torus is a W x H 2D torus of half-switch pairs. Methods are not safe for
// concurrent use; the simulator is single-threaded.
type Torus struct {
	w, h int
	dead map[SwitchID]bool
	// routes caches the preferred route per (src, dst) pair, filled
	// lazily and invalidated whenever the set of dead half-switches
	// changes. Cached slices are shared with callers and must be treated
	// as read-only.
	routes []routeSlot
}

// routeSlot is one route-cache entry; known distinguishes a cached
// unroutable pair (r == nil) from a pair not yet computed.
type routeSlot struct {
	r     []SwitchID
	known bool
}

// New returns a torus of the given dimensions. Dimensions below 2 panic;
// a 1-wide ring degenerates and the paper's redundancy argument needs a
// real torus.
func New(w, h int) *Torus {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: torus dimensions must be >= 2, got %dx%d", w, h))
	}
	n := w * h
	return &Torus{w: w, h: h, dead: make(map[SwitchID]bool), routes: make([]routeSlot, n*n)}
}

// Nodes returns the node count.
func (t *Torus) Nodes() int { return t.w * t.h }

// Width and Height return the torus dimensions.
func (t *Torus) Width() int  { return t.w }
func (t *Torus) Height() int { return t.h }

// Coord returns the (x, y) position of node n.
func (t *Torus) Coord(n int) (x, y int) { return n % t.w, n / t.w }

// NodeAt returns the node at torus position (x, y), wrapping both axes.
func (t *Torus) NodeAt(x, y int) int {
	x = ((x % t.w) + t.w) % t.w
	y = ((y % t.h) + t.h) % t.h
	return y*t.w + x
}

// EWSwitch returns the east-west half-switch of node n.
func (t *Torus) EWSwitch(n int) SwitchID { return SwitchID(2 * n) }

// NSSwitch returns the north-south half-switch of node n.
func (t *Torus) NSSwitch(n int) SwitchID { return SwitchID(2*n + 1) }

// NodeOf returns the node owning half-switch s.
func (t *Torus) NodeOf(s SwitchID) int { return int(s) / 2 }

// AxisOf returns which axis half-switch s serves.
func (t *Torus) AxisOf(s SwitchID) Axis {
	if int(s)%2 == 0 {
		return EW
	}
	return NS
}

// Kill marks half-switch s permanently dead. Routes computed afterwards
// avoid it.
func (t *Torus) Kill(s SwitchID) {
	t.dead[s] = true
	t.invalidateRoutes()
}

// Revive clears the dead mark (used by tests).
func (t *Torus) Revive(s SwitchID) {
	delete(t.dead, s)
	t.invalidateRoutes()
}

// invalidateRoutes discards every cached route; the next Route call per
// pair recomputes against the current dead set.
func (t *Torus) invalidateRoutes() {
	for i := range t.routes {
		t.routes[i] = routeSlot{}
	}
}

// Alive reports whether half-switch s is operational.
func (t *Torus) Alive(s SwitchID) bool { return !t.dead[s] }

// DeadCount returns the number of killed half-switches.
func (t *Torus) DeadCount() int { return len(t.dead) }

// Route returns the ordered half-switches a message traverses from node
// src to node dst, preferring dimension-order (X then Y) over the shortest
// ring directions. When half-switches have been killed it falls back to
// alternative directions, Y-then-X order, and finally single-node detours.
// It returns nil when no route exists (cannot happen with a single dead
// half-switch on a torus of width and height >= 2). src == dst returns an
// empty route.
//
// Routes are cached per (src, dst) pair until the next Kill/Revive; the
// returned slice is shared and must not be modified.
func (t *Torus) Route(src, dst int) []SwitchID {
	slot := &t.routes[src*t.w*t.h+dst]
	if slot.known {
		return slot.r
	}
	r := t.computeRoute(src, dst)
	slot.r, slot.known = r, true
	return r
}

// computeRoute finds the route Route caches. It tries the candidates in
// preference order, checking each switch by switch, and builds only the
// one it returns, at its exact length.
func (t *Torus) computeRoute(src, dst int) []SwitchID {
	if src == dst {
		return []SwitchID{}
	}
	if r, ok := t.firstAlive(src, dst); ok {
		return r.appendHops(t, make([]SwitchID, 0, r.len(t)), 0)
	}
	// Last resort: detour through every other node.
	for via := 0; via < t.Nodes(); via++ {
		if via == src || via == dst {
			continue
		}
		r1, ok := t.firstAlive(src, via)
		if !ok {
			continue
		}
		r2, ok := t.firstAlive(via, dst)
		if !ok {
			continue
		}
		// The detour legs may share the junction half-switch;
		// physically the message just continues through it.
		n1, n2 := r1.len(t), r2.len(t)
		skip := 0
		if n2 > 0 && r1.hop(t, n1-1) == r2.hop(t, 0) {
			skip = 1
		}
		joined := r1.appendHops(t, make([]SwitchID, 0, n1+n2-skip), 0)
		return r2.appendHops(t, joined, skip)
	}
	return nil
}

// Hops returns the number of half-switch traversals between src and dst on
// the currently available topology, or -1 if unroutable.
func (t *Torus) Hops(src, dst int) int {
	r := t.Route(src, dst)
	if r == nil {
		return -1
	}
	return len(r)
}

// route is one dimension-order route candidate from (sx, sy) to
// (dx, dy): X then Y, or Y then X when yFirst, travelling ring direction
// xd (+1 or -1) on the X axis and yd on the Y axis. A direction is 0 on
// an axis the route does not travel.
type route struct {
	sx, sy, dx, dy int
	xd, yd         int
	yFirst         bool
}

// legLen returns the half-switches one axis's leg traverses, every node
// from a to b inclusive in direction d on a ring of size n, or 0 when
// the leg does not move.
func legLen(a, b, d, n int) int {
	if a == b {
		return 0
	}
	return ((b-a)*d%n+n)%n + 1
}

// len returns the number of half-switches r traverses.
func (r route) len(t *Torus) int {
	return legLen(r.sx, r.dx, r.xd, t.w) + legLen(r.sy, r.dy, r.yd, t.h)
}

// hop returns the k-th half-switch of r: an X leg uses the EW
// half-switches of its row, a Y leg the NS half-switches of its column.
func (r route) hop(t *Torus, k int) SwitchID {
	if r.yFirst {
		yn := legLen(r.sy, r.dy, r.yd, t.h)
		if k < yn {
			return t.NSSwitch(t.NodeAt(r.sx, r.sy+k*r.yd))
		}
		return t.EWSwitch(t.NodeAt(r.sx+(k-yn)*r.xd, r.dy))
	}
	xn := legLen(r.sx, r.dx, r.xd, t.w)
	if k < xn {
		return t.EWSwitch(t.NodeAt(r.sx+k*r.xd, r.sy))
	}
	return t.NSSwitch(t.NodeAt(r.dx, r.sy+(k-xn)*r.yd))
}

// appendHops appends r's half-switches, from the from-th on, to out.
func (r route) appendHops(t *Torus, out []SwitchID, from int) []SwitchID {
	for k := from; k < r.len(t); k++ {
		out = append(out, r.hop(t, k))
	}
	return out
}

// alive reports whether every half-switch of r is alive.
func (r route) alive(t *Torus) bool {
	for k := range r.len(t) {
		if t.dead[r.hop(t, k)] {
			return false
		}
	}
	return true
}

// firstAlive returns the first candidate from src to dst, in preference
// order, whose half-switches are all alive, or false if none is.
func (t *Torus) firstAlive(src, dst int) (route, bool) {
	for i := 0; ; i++ {
		r, ok := t.candidate(src, dst, i)
		if !ok || r.alive(t) {
			return r, ok
		}
	}
}

// candidate returns the i-th route candidate from src to dst in
// preference order, or false past the last: the XY routes over each pair
// of ring directions (shortest first, the X direction varying slowest),
// then the YX routes (the Y direction varying slowest). src != dst.
func (t *Torus) candidate(src, dst, i int) (route, bool) {
	r := route{}
	r.sx, r.sy = t.Coord(src)
	r.dx, r.dy = t.Coord(dst)
	xDirs, nx := ringDirections(r.sx, r.dx, t.w)
	yDirs, ny := ringDirections(r.sy, r.dy, t.h)
	switch {
	case i < nx*ny:
		r.xd, r.yd = xDirs[i/ny], yDirs[i%ny]
	case i < 2*nx*ny:
		i -= nx * ny
		r.yd, r.xd, r.yFirst = yDirs[i/nx], xDirs[i%nx], true
	default:
		return route{}, false
	}
	return r, true
}

// ringDirections returns the directions (+1/-1) to travel from a to b on a
// ring of size n, shortest first, and their count; equal distances prefer
// +1. A zero distance yields a single 0 entry meaning "no travel on this
// axis".
func ringDirections(a, b, n int) ([2]int, int) {
	if a == b {
		return [2]int{0}, 1
	}
	fwd := ((b - a) + n) % n
	bwd := n - fwd
	if fwd <= bwd {
		return [2]int{+1, -1}, 2
	}
	return [2]int{-1, +1}, 2
}
