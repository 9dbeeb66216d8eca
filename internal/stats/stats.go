// Package stats provides the statistical treatment of the paper's
// methodology (§4.1, after Alameldeen et al.): each design point is
// simulated several times with pseudo-random latency perturbations, and
// results are reported as a mean with an error bar of one standard
// deviation in each direction.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample aggregates observations of one quantity.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Stddev returns the sample standard deviation (0 for fewer than two
// observations).
func (s *Sample) Stddev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min and Max return extrema (0 for empty samples).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders "mean ± stddev".
func (s *Sample) String() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean(), s.Stddev())
}

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// Percentile returns the p-th percentile (p in [0, 100]) by linear
// interpolation between closest ranks on the sorted observations. The
// empty sample reports 0, a single observation reports itself, and p is
// clamped into range, so the result is never NaN.
func (s *Sample) Percentile(p float64) float64 {
	return Percentile(s.values, p)
}

// Median is the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Percentile computes the p-th percentile of values (not necessarily
// sorted) by linear interpolation between closest ranks; see
// Sample.Percentile for the edge-case guarantees.
func Percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return values[0]
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// bootstrapIters is the number of resamples BootstrapCI draws; 1000 is
// the textbook default and keeps a hundreds-of-runs campaign reduction
// in the milliseconds.
const bootstrapIters = 1000

// splitmix64 steps the deterministic RNG the bootstrap uses. It is
// seeded from a constant, never from time or global state, so a report
// reduced from the same results is byte-identical on every machine and
// at every worker count.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// BootstrapCI estimates a confidence interval for the mean by the
// percentile bootstrap: iters resamples with replacement, each reduced
// to its mean, with the (1-conf)/2 and (1+conf)/2 percentiles of that
// distribution as the bounds. conf is a fraction (0.95 for 95%). The
// resampling RNG is deterministic, so identical inputs give identical
// intervals. Guarantees: the empty sample reports (0, 0), a single
// observation reports (v, v), an all-equal sample reports (v, v), and
// the result is never NaN.
func BootstrapCI(values []float64, conf float64) (lo, hi float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return values[0], values[0]
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	allEqual := true
	for _, v := range values[1:] {
		if v != values[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return values[0], values[0]
	}
	state := uint64(0x5EED5EED) ^ uint64(n)<<32
	means := make([]float64, bootstrapIters)
	for i := range means {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += values[splitmix64(&state)%uint64(n)]
		}
		means[i] = sum / float64(n)
	}
	alpha := (1 - conf) / 2
	return Percentile(means, 100*alpha), Percentile(means, 100*(1-alpha))
}

// Summary is the full statistical description of one sample, shaped for
// structured reports: JSON field names are part of the campaign report
// format.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	P5     float64 `json:"p5"`
	P95    float64 `json:"p95"`
	// CILo and CIHi bound the 95% bootstrap confidence interval for the
	// mean.
	CILo float64 `json:"ci95_lo"`
	CIHi float64 `json:"ci95_hi"`
}

// Summarize describes the sample: moments, extrema, percentiles, and a
// 95% bootstrap confidence interval for the mean. Every field of the
// result is finite (never NaN) for any sample, including the empty one.
func (s *Sample) Summarize() Summary {
	lo, hi := BootstrapCI(s.values, 0.95)
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Min:    s.Min(),
		Max:    s.Max(),
		Median: s.Median(),
		P5:     s.Percentile(5),
		P95:    s.Percentile(95),
		CILo:   lo,
		CIHi:   hi,
	}
}

// SafeDiv returns a/b, or 0 when b is zero.
func SafeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Bar renders a crude horizontal bar of the given relative value in
// [0, max] using width runes; used for figure-like terminal output.
func Bar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Table renders rows of cells with aligned columns.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
