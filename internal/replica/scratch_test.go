package replica

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickScratchReuseMatchesFreshInput runs a sequence of owners through
// one Placer's work area, their candidate lists shrinking and growing
// between calls (empty lists, duplicates, budgets from 0 to past the
// candidate count, MaxAv(activity) with Demand), and holds every call to
// the same Select on a literal Input, which runs on a fresh work area: the
// same selection and the generator left at the same position. Whatever a
// previous owner left in the work area must never leak into the next.
func TestQuickScratchReuseMatchesFreshInput(t *testing.T) {
	policies := []Policy{MaxAv{}, MaxAv{Objective: ObjectiveOnDemandActivity}, MostActive{}, Random{}}
	f := func(seeds []int64) bool {
		var pl Placer
		for step, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			fresh := randomPolicyInput(rng)
			// Every third owner doubles or quadruples its list (each entry
			// then has a twin), so the work area also grows past ten.
			for k := rng.Intn(3); step%3 == 0 && k > 0; k-- {
				fresh.Candidates = append(fresh.Candidates, fresh.Candidates...)
				fresh.CandidateCounts = append(fresh.CandidateCounts, fresh.CandidateCounts...)
				fresh.Budget += rng.Intn(len(fresh.Candidates) + 1)
			}
			reused := fresh
			reused.work = &pl.work
			for _, p := range policies {
				a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := p.Select(reused, a), p.Select(fresh, b)
				if !slices.Equal(got, want) {
					t.Logf("step %d %s %s budget %d candidates %v counts %v: reused work area selected %v, fresh %v",
						step, p.Name(), fresh.Mode, fresh.Budget, fresh.Candidates, fresh.CandidateCounts, got, want)
					return false
				}
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Logf("step %d %s: the reused work area left the generator at a different position", step, p.Name())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
