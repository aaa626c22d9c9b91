package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// mean is the batch arithmetic mean the Welford accumulator is checked
// against (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// batchVariance is the two-pass population variance the Welford accumulator
// is checked against.
func batchVariance(xs []float64) float64 {
	m := mean(xs)
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return ss / float64(len(xs))
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, standard deviation 2
	if !almost(mean(xs), 5) {
		t.Errorf("mean = %v, want 5", mean(xs))
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if !almost(math.Sqrt(w.Variance()), 2) {
		t.Errorf("Welford standard deviation = %v, want 2", math.Sqrt(w.Variance()))
	}
	if mean(nil) != 0 {
		t.Error("empty slice should yield 0")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{1, 2, 3, 4, 5, 6}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != 6 || !almost(w.Mean(), mean(xs)) {
		t.Errorf("Welford mean = %v n=%d", w.Mean(), w.N())
	}
	wantVar := batchVariance(xs)
	if !almost(w.Variance(), wantVar) {
		t.Errorf("Welford variance = %v, want %v", w.Variance(), wantVar)
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	var whole, a, b Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || !almost(a.Mean(), whole.Mean()) || !almost(a.Variance(), whole.Variance()) {
		t.Errorf("merged = (%d,%v,%v), want (%d,%v,%v)",
			a.N(), a.Mean(), a.Variance(), whole.N(), whole.Mean(), whole.Variance())
	}
	var empty Welford
	empty.Merge(whole)
	if !almost(empty.Mean(), whole.Mean()) {
		t.Error("merging into empty should copy")
	}
	before := whole.Mean()
	whole.Merge(Welford{})
	if !almost(whole.Mean(), before) {
		t.Error("merging empty should be a no-op")
	}
}

func TestQuickWelfordMatchesBatch(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			w.Add(xs[i])
		}
		return almost(w.Mean(), mean(xs)) && math.Abs(w.Variance()-batchVariance(xs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
