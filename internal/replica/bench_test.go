package replica_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// benchFacebook is a 2,000-user calibrated Facebook dataset with one
// Sporadic schedule table, built once for every benchmark in the package.
var benchFacebook = sync.OnceValues(func() (*trace.Dataset, []interval.Bitmap) {
	ds, err := trace.SynthesizeCalibrated("facebook", 2000, 1, 10)
	if err != nil {
		panic(err)
	}
	return ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 1, 1).Bitmaps()
})

// benchOwners is the analysis population the benchmarks cycle over: the
// degree-10 owners, as in the paper's default sweep.
func benchOwners(b *testing.B, ds *trace.Dataset) []socialgraph.UserID {
	owners := ds.Graph.UsersWithDegree(10)
	if len(owners) == 0 {
		b.Fatal("no degree-10 owners")
	}
	return owners
}

var benchSink int

// BenchmarkMaxAvSelect times one greedy set-cover selection the way the
// sweep runs it: ConRep, budget 10, cycling over the degree-10 owners.
func BenchmarkMaxAvSelect(b *testing.B) {
	ds, bitmaps := benchFacebook()
	owners := benchOwners(b, ds)
	// Plain MaxAv reads no Placer-owned ingredient, so the Inputs can be
	// prepared ahead and kept.
	pl := replica.NewPlacer(ds, bitmaps, replica.ConRep, 10, replica.MaxAv{})
	ins := make([]replica.Input, len(owners))
	for i, u := range owners {
		ins[i] = pl.Input(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(replica.MaxAv{}.Select(ins[i%len(ins)], nil))
	}
}

// BenchmarkPlacerInput times preparing one Input over the same owners, per
// ingredient the policies' Traits can switch on.
func BenchmarkPlacerInput(b *testing.B) {
	ds, bitmaps := benchFacebook()
	owners := benchOwners(b, ds)
	for _, bc := range []struct {
		name string
		p    replica.Policy
	}{
		{"none", replica.MaxAv{}},
		{"counts", replica.MostActive{}},
		{"demand", replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pl := replica.NewPlacer(ds, bitmaps, replica.ConRep, 10, bc.p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(pl.Input(owners[i%len(owners)]).Candidates)
			}
		})
	}
}

// BenchmarkPolicySelect times the randomized policies' selections beside
// BenchmarkMaxAvSelect: budget 10, cycling over the same degree-10 owners,
// per mode. One generator runs on across owners.
func BenchmarkPolicySelect(b *testing.B) {
	ds, bitmaps := benchFacebook()
	owners := benchOwners(b, ds)
	for _, p := range []replica.Policy{replica.MostActive{}, replica.Random{}} {
		for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
			b.Run(p.Name()+"/"+mode.String(), func(b *testing.B) {
				pl := replica.NewPlacer(ds, bitmaps, mode, 10, p)
				ins := make([]replica.Input, len(owners))
				for i, u := range owners {
					ins[i] = pl.Input(u)
					// The counts live in the Placer only until its next Input.
					ins[i].CandidateCounts = slices.Clone(ins[i].CandidateCounts)
				}
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += len(p.Select(ins[i%len(ins)], rng))
				}
			})
		}
	}
}
