// Multi-objective dominance and Pareto-frontier helpers used by the
// exploration engine (internal/explore). All objectives are expressed
// maximize-is-better; callers negate minimized quantities before
// calling in. Functions are pure and deterministic: ties and orderings
// depend only on the input values and indices, never on map iteration
// or randomness, so frontier reports stay byte-identical at any worker
// count.
package stats

import (
	"math"
	"sort"
)

// Dominates reports whether objective vector a Pareto-dominates b:
// a is at least as good in every objective and strictly better in at
// least one. Vectors must have equal length; NaN in either vector
// makes the comparison false both ways (NaN is incomparable, so a
// NaN-carrying point can never dominate, and is never dominated —
// callers filter invalid points before frontier extraction).
func Dominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	strict := false
	for i := range a {
		if a[i] != a[i] || b[i] != b[i] { // NaN: incomparable
			return false
		}
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// CrowdingDistances returns the NSGA-II crowding distance of each
// point, intended for points within a single nondominated front: for
// every objective the points are sorted by value, the two boundary
// points get +Inf, and interior points accumulate the normalized gap
// between their neighbors. Larger is less crowded; selecting by
// descending distance preserves the extremes of every objective, which
// a single-objective tie-break would truncate. Objectives where every
// point is equal (or whose spread is not a positive finite number)
// contribute nothing beyond the boundary +Inf. Fewer than three points
// are all boundaries. Ties in value are broken by index, so the result
// is deterministic.
func CrowdingDistances(points [][]float64) []float64 {
	d := make([]float64, len(points))
	if len(points) == 0 {
		return d
	}
	inf := math.Inf(1)
	if len(points) <= 2 {
		for i := range d {
			d[i] = inf
		}
		return d
	}
	order := make([]int, len(points))
	for m := range points[0] {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return points[order[a]][m] < points[order[b]][m]
		})
		lo, hi := order[0], order[len(order)-1]
		d[lo], d[hi] = inf, inf
		spread := points[hi][m] - points[lo][m]
		if !(spread > 0) || math.IsInf(spread, 1) { // flat, NaN, or unnormalizable
			continue
		}
		for k := 1; k < len(order)-1; k++ {
			d[order[k]] += (points[order[k+1]][m] - points[order[k-1]][m]) / spread
		}
	}
	return d
}

// NondominatedRanks assigns each point its nondominated-sorting rank:
// rank 0 is the Pareto front, rank 1 the front after removing rank 0,
// and so on (NSGA-style fronts). Points whose vectors contain NaN are
// incomparable and end up in rank 0 by dominance rules; callers filter
// them beforehand when that is not wanted.
func NondominatedRanks(points [][]float64) []int {
	rank := make([]int, len(points))
	for i := range rank {
		rank[i] = -1
	}
	remaining := len(points)
	for r := 0; remaining > 0; r++ {
		// Collect the front among unranked points.
		var front []int
		for i := range points {
			if rank[i] != -1 {
				continue
			}
			dominated := false
			for j := range points {
				if rank[j] == -1 && i != j && Dominates(points[j], points[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				front = append(front, i)
			}
		}
		if len(front) == 0 {
			// All remaining points dominated each other transitively —
			// impossible for strict dominance, but guard against an
			// infinite loop on malformed input.
			for i := range points {
				if rank[i] == -1 {
					rank[i] = r
				}
			}
			return rank
		}
		for _, i := range front {
			rank[i] = r
		}
		remaining -= len(front)
	}
	return rank
}
