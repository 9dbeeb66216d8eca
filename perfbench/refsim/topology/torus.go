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

func (t *Torus) computeRoute(src, dst int) []SwitchID {
	if src == dst {
		return []SwitchID{}
	}
	for _, r := range t.candidateRoutes(src, dst) {
		if t.alive(r) {
			return r
		}
	}
	// Last resort: detour through every other node.
	for via := 0; via < t.Nodes(); via++ {
		if via == src || via == dst {
			continue
		}
		for _, r1 := range t.candidateRoutes(src, via) {
			if !t.alive(r1) {
				continue
			}
			for _, r2 := range t.candidateRoutes(via, dst) {
				if !t.alive(r2) {
					continue
				}
				joined := append([]SwitchID{}, r1...)
				// The detour legs may share the junction half-switch;
				// physically the message just continues through it.
				if len(r2) > 0 && joined[len(joined)-1] == r2[0] {
					r2 = r2[1:]
				}
				return append(joined, r2...)
			}
			break
		}
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

func (t *Torus) alive(route []SwitchID) bool {
	for _, s := range route {
		if t.dead[s] {
			return false
		}
	}
	return true
}

// candidateRoutes generates route candidates in preference order: XY and YX
// dimension-order routes over the four combinations of ring directions
// (shortest first).
func (t *Torus) candidateRoutes(src, dst int) [][]SwitchID {
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	xDirs := ringDirections(sx, dx, t.w)
	yDirs := ringDirections(sy, dy, t.h)

	var routes [][]SwitchID
	add := func(r []SwitchID) {
		if r != nil {
			routes = append(routes, r)
		}
	}
	for _, xd := range xDirs {
		for _, yd := range yDirs {
			add(t.routeXY(src, dst, xd, yd))
		}
	}
	for _, yd := range yDirs {
		for _, xd := range xDirs {
			add(t.routeYX(src, dst, xd, yd))
		}
	}
	return routes
}

// ringDirections returns the directions (+1/-1) to travel from a to b on a
// ring of size n, shortest first; equal distances prefer +1. A zero
// distance yields a single 0 entry meaning "no travel on this axis".
func ringDirections(a, b, n int) []int {
	if a == b {
		return []int{0}
	}
	fwd := ((b - a) + n) % n
	bwd := n - fwd
	if fwd <= bwd {
		return []int{+1, -1}
	}
	return []int{-1, +1}
}

// routeXY builds an X-then-Y dimension-order route using ring direction xd
// on the X axis and yd on the Y axis.
func (t *Torus) routeXY(src, dst int, xd, yd int) []SwitchID {
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	var route []SwitchID
	x := sx
	if xd != 0 && sx != dx {
		for {
			route = append(route, t.EWSwitch(t.NodeAt(x, sy)))
			if x == dx {
				break
			}
			x = ((x+xd)%t.w + t.w) % t.w
		}
	}
	if yd != 0 && sy != dy {
		y := sy
		for {
			route = append(route, t.NSSwitch(t.NodeAt(dx, y)))
			if y == dy {
				break
			}
			y = ((y+yd)%t.h + t.h) % t.h
		}
	} else if xd == 0 || sx == dx {
		// Same row and same column means src == dst; caller handles that.
		return nil
	}
	return route
}

// routeYX builds a Y-then-X dimension-order route.
func (t *Torus) routeYX(src, dst int, xd, yd int) []SwitchID {
	sx, sy := t.Coord(src)
	dx, dy := t.Coord(dst)
	var route []SwitchID
	if yd != 0 && sy != dy {
		y := sy
		for {
			route = append(route, t.NSSwitch(t.NodeAt(sx, y)))
			if y == dy {
				break
			}
			y = ((y+yd)%t.h + t.h) % t.h
		}
	}
	if xd != 0 && sx != dx {
		x := sx
		for {
			route = append(route, t.EWSwitch(t.NodeAt(x, dy)))
			if x == dx {
				break
			}
			x = ((x+xd)%t.w + t.w) % t.w
		}
	} else if yd == 0 || sy == dy {
		return nil
	}
	return route
}
