//go:build !race

// The race detector's instrumentation allocates, and under -race sync.Pool
// drops items at random, so allocation counts are only exact without it.

package replica_test

import (
	"math/rand"
	"testing"

	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// TestWarmedPlacerSelectAllocatesOnlyItsAnswer: once a worker's Placer has
// seen its largest candidate list, every policy's Select — the friend
// policies on the Placer's work area, the DHT placements on their pooled
// window — allocates exactly one object per call, the selection it returns.
func TestWarmedPlacerSelectAllocatesOnlyItsAnswer(t *testing.T) {
	w := newPlacerWorld(t, 300, 1)
	users := make([]socialgraph.UserID, w.ds.NumUsers())
	for u := range users {
		users[u] = socialgraph.UserID(u)
	}
	for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
		for _, p := range w.policies() {
			pl := replica.NewPlacer(w.ds, w.bitmaps, mode, 3, p)
			rng := rand.New(rand.NewSource(1))
			pass := func() {
				for _, u := range users {
					p.Select(pl.Input(u), rng)
				}
			}
			pass() // grow the work area to the largest candidate list
			perCall := testing.AllocsPerRun(5, pass) / float64(len(users))
			if perCall != 1 {
				t.Errorf("%s %s: warmed Select allocates %.2f objects per call, want 1 (the selection)", p.Name(), mode, perCall)
			}
		}
	}
}
