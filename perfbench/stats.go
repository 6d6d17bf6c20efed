package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail can be reported at, lowest
// first. The rule picks the highest one with at least minBeyond samples
// above it.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

const (
	// minBeyond is how many samples must lie beyond a reported tail
	// percentile for it to describe more than a handful of outliers.
	minBeyond = 10
	// minTailSamples is the count below which only the median is reported:
	// with fewer than forty samples no ladder step above it leaves ten
	// samples beyond.
	minTailSamples = 40
)

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, and 50 (the median) when n is below
// minTailSamples.
func tailPercentile(n int) float64 {
	if n < minTailSamples {
		return 50
	}
	best := 50.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// which is how steadiness across runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles(method='exclusive') with four groups.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
