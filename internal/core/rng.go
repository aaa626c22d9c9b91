package core

import (
	"math/rand"

	"dosn/internal/mathrand"
)

// workerRNG is the one generator a sweep, placement or experiment loop hands
// its randomized policies. The zero value is ready.
type workerRNG struct{ r *rand.Rand }

// seeded returns the generator restarted at seed and counts the reseed in
// core.rng_seeded. The stream is the one rand.New(rand.NewSource(seed))
// produces, draw for draw; the reseed is O(1) and allocates nothing
// (mathrand.Source), so a worker pays for one 5 KB source, not one per
// (repetition, policy, user).
func (w *workerRNG) seeded(seed int64) *rand.Rand {
	if w.r == nil {
		w.r = rand.New(&mathrand.Source{})
	}
	w.r.Seed(seed)
	obsRNGSeeded.Inc()
	return w.r
}
