package replica_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dosn/internal/dht"
	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// placerWorld is one synthesized dataset with a Sporadic schedule table and
// a DHT ring over it.
type placerWorld struct {
	ds      *trace.Dataset
	bitmaps []interval.Bitmap
	ring    *dht.Ring
}

func newPlacerWorld(t testing.TB, users int, seed int64) placerWorld {
	t.Helper()
	cfg := trace.DefaultFacebookConfig(users)
	cfg.Seed = seed
	ds := trace.MustSynthesize(cfg)
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return placerWorld{ds: ds, bitmaps: onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, seed, 1).Bitmaps(), ring: ring}
}

func (w placerWorld) policies() []replica.Policy {
	return []replica.Policy{
		replica.MaxAv{},
		replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity},
		replica.MostActive{},
		replica.Random{},
		&dht.Placement{Ring: w.ring},
		&dht.Placement{Ring: w.ring, Social: true, Graph: w.ds.Graph},
	}
}

// fullInput hand-builds the Input of u with every ingredient populated,
// whatever the policy reads.
func (w placerWorld) fullInput(u socialgraph.UserID, mode replica.Mode, budget int) replica.Input {
	friends := w.ds.Graph.Neighbors(u)
	var demand interval.Bitmap
	for _, k := range w.ds.ReceivedIdx(u) {
		m := w.ds.MinuteOfDayAt(int(k))
		demand.AddInterval(interval.Interval{Start: m, End: m + 1})
	}
	return replica.Input{
		Owner:           u,
		Candidates:      friends,
		Bitmaps:         w.bitmaps,
		CandidateCounts: w.ds.CandidateInteractionCounts(u, friends, new(trace.CountScratch)),
		Demand:          &demand,
		Mode:            mode,
		Budget:          budget,
	}
}

// TestPlacerInputMatchesFullInput: preparing only what a policy's Traits
// declare never changes what the policy selects.
func TestPlacerInputMatchesFullInput(t *testing.T) {
	const budget = 5
	for _, seed := range []int64{1, 7, 42} {
		w := newPlacerWorld(t, 300, seed)
		for _, p := range w.policies() {
			for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, p.Name(), mode), func(t *testing.T) {
					pl := replica.NewPlacer(w.ds, w.bitmaps, mode, budget, p)
					for u := socialgraph.UserID(0); int(u) < w.ds.NumUsers(); u++ {
						rngSeed := seed<<20 + int64(u)
						got := p.Select(pl.Input(u), rand.New(rand.NewSource(rngSeed)))
						want := p.Select(w.fullInput(u, mode, budget), rand.New(rand.NewSource(rngSeed)))
						if !slices.Equal(got, want) {
							t.Fatalf("user %d: through Placer %v, through full Input %v", u, got, want)
						}
					}
				})
			}
		}
	}
}

// TestPlacerHandsPoliciesTheirTraits is the metamorphic check that the
// declared ingredients arrive and matter: a policy given what its Traits ask
// for selects differently, for some user, from the same policy given the
// blank ingredient (all-zero counts, an empty demand universe).
func TestPlacerHandsPoliciesTheirTraits(t *testing.T) {
	w := newPlacerWorld(t, 300, 1)
	for _, p := range []replica.Policy{replica.MostActive{}, replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity}} {
		pl := replica.NewPlacer(w.ds, w.bitmaps, replica.ConRep, 3, p)
		differs := false
		for u := socialgraph.UserID(0); int(u) < w.ds.NumUsers() && !differs; u++ {
			in := pl.Input(u)
			blank := in
			blank.CandidateCounts = make([]int, len(in.Candidates))
			blank.Demand = new(interval.Bitmap)
			informed := p.Select(in, rand.New(rand.NewSource(int64(u))))
			differs = !slices.Equal(informed, p.Select(blank, rand.New(rand.NewSource(int64(u)))))
		}
		if !differs {
			t.Errorf("%s selects the same with and without the ingredients its Traits declare", p.Name())
		}
	}
}

// TestPlacerGatesIngredientsOnTraits pins the gate itself: an ingredient no
// policy reads is not prepared.
func TestPlacerGatesIngredientsOnTraits(t *testing.T) {
	w := newPlacerWorld(t, 300, 1)
	for _, tc := range []struct {
		policies               []replica.Policy
		wantCounts, wantDemand bool
	}{
		{nil, false, false},
		{[]replica.Policy{replica.MaxAv{}, replica.Random{}}, false, false},
		{[]replica.Policy{replica.MaxAv{}, replica.MostActive{}}, true, false},
		{[]replica.Policy{replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity}}, false, true},
	} {
		in := replica.NewPlacer(w.ds, w.bitmaps, replica.ConRep, 3, tc.policies...).Input(0)
		if got := in.CandidateCounts != nil; got != tc.wantCounts {
			t.Errorf("%d policies: CandidateCounts prepared = %v, want %v", len(tc.policies), got, tc.wantCounts)
		}
		if got := in.Demand != nil; got != tc.wantDemand {
			t.Errorf("%d policies: Demand prepared = %v, want %v", len(tc.policies), got, tc.wantDemand)
		}
	}
}

// TestPlacerInputDoesNotAllocate: the Placer is per worker, not per user.
func TestPlacerInputDoesNotAllocate(t *testing.T) {
	w := newPlacerWorld(t, 300, 1)
	pl := replica.NewPlacer(w.ds, w.bitmaps, replica.ConRep, 3,
		replica.MostActive{}, replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity})
	sweep := func() {
		for u := socialgraph.UserID(0); int(u) < w.ds.NumUsers(); u++ {
			pl.Input(u)
		}
	}
	sweep() // grow the count buffers to the largest user
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Errorf("warmed Placer.Input allocates %.1f times per %d-user pass, want 0", allocs, w.ds.NumUsers())
	}
}
