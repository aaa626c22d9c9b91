// Package stats provides the small numerical toolkit the experiment harness
// needs: a batch percentile, and the mergeable Welford accumulator every
// sweep cell is made of.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile of xs using linear interpolation
// between closest ranks. Its edge behavior is defined, not accidental:
//
//   - p is clamped to [0,100]; p < 0 yields the minimum and p > 100 the
//     maximum. A NaN p has no defensible clamp and returns NaN.
//   - NaN samples carry no rank information and are dropped before ranking
//     (a NaN would otherwise poison sort.Float64s's ordering and return an
//     arbitrary neighbor's value).
//   - An empty slice — or one left empty after dropping NaNs — has no
//     percentile; the result is NaN, which no real rank can produce, rather
//     than a fabricated 0.
func Percentile(xs []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford accumulates a running mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean)) // rounded: no fused multiply-add
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Merge combines another accumulator into w (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}
