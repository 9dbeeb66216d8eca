package topology

import "fmt"

// Partition splits the torus's nodes into k contiguous, balanced shards
// and returns the node→shard assignment. Contiguous row-major ranges keep
// torus neighbours mostly co-sharded, which minimizes cross-shard traffic
// under dimension-order routing.
func (t *Torus) Partition(k int) []int32 {
	n := t.Nodes()
	if k < 1 || k > n {
		panic(fmt.Sprintf("topology: cannot partition %d nodes into %d shards", n, k))
	}
	assign := make([]int32, n)
	base, extra := n/k, n%k
	node := 0
	for s := 0; s < k; s++ {
		size := base
		if s < extra {
			size++
		}
		for i := 0; i < size; i++ {
			assign[node] = int32(s)
			node++
		}
	}
	return assign
}

// MinCrossPartitionLatency returns the conservative lookahead for the
// given node→shard assignment: the smallest number of cycles any message
// can take between the scheduling of one hop and the scheduling of the
// next when those two events live on different shards. Under
// dimension-order routing every scheduling edge that can cross shards is
// a hop between torus-adjacent nodes' switches, costing hopCycles +
// minSerCycles, so the bound holds for every route the torus can produce
// (including post-failure detours, which are concatenations of such
// hops). It returns 0 when no pair of 4-neighbourhood-adjacent nodes
// spans two shards — i.e. the assignment needs no synchronization.
//
// The route cache is untouched: the query only walks the static
// adjacency, never routes.
func (t *Torus) MinCrossPartitionLatency(assign []int32, hopCycles, minSerCycles uint64) uint64 {
	if len(assign) != t.Nodes() {
		panic(fmt.Sprintf("topology: assignment covers %d nodes, torus has %d", len(assign), t.Nodes()))
	}
	crossing := false
	for n := 0; n < t.Nodes() && !crossing; n++ {
		x, y := t.Coord(n)
		s := assign[n]
		if assign[t.NodeAt(x+1, y)] != s || assign[t.NodeAt(x, y+1)] != s {
			crossing = true
		}
	}
	if !crossing {
		return 0
	}
	return hopCycles + minSerCycles
}
