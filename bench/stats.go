package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the two nearest order statistics. xs need not be sorted; an empty
// input yields NaN. It repeats dosn/internal/stats.Percentile on purpose: a
// change to the program must not be able to move how it is measured.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrShare is the inter-quartile range as a share of the median — the spread
// figure the runner's contention warning and the A/A table use.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a tail.
const minTailSamples = 10

// supportsPercentile reports whether n samples leave at least minTailSamples
// beyond the p-th percentile (p in (0,1)).
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailSamples
}
