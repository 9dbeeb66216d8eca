package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p90 of 20 samples rests on two of them and says little.
const minBeyond = 10

// percentile returns the q-quantile of xs by the nearest-rank rule and
// whether at least minBeyond samples lie strictly beyond its rank. A
// caller reports the value only when ok is true.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// reportedPercentile is percentile for a metric that must always be
// emitted: a percentile withheld by the rule reads 0.
func reportedPercentile(xs []float64, q float64) float64 {
	if v, ok := percentile(xs, q); ok {
		return v
	}
	return 0
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
