package dht

import (
	"runtime"
	"sync"
	"testing"

	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// benchFacebook is the paper-scale Facebook dataset with one Sporadic
// schedule table and the default ring over it, built once for every
// benchmark in the package.
var benchFacebook = sync.OnceValues(func() (*trace.Dataset, *onlinetime.Table) {
	ds, err := trace.SynthesizeCalibrated("facebook", trace.PaperFacebookUsers, 1, 0)
	if err != nil {
		panic(err)
	}
	return ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 1, runtime.NumCPU())
})

var benchSink int

// BenchmarkPlacementSelect times one Select per profile at the comparison's
// budget of 10 (a 40-candidate window), cycling over the whole population
// the way the load-balance pass does.
func BenchmarkPlacementSelect(b *testing.B) {
	ds, table := benchFacebook()
	ring := mustRing(b, ds.NumUsers(), Config{})
	for _, bc := range []struct {
		name string
		p    *Placement
	}{
		{"Random", &Placement{Ring: ring}},
		{"Social", &Placement{Ring: ring, Social: true, Graph: ds.Graph}},
	} {
		for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
			b.Run(bc.name+"/"+mode.String(), func(b *testing.B) {
				in := replica.Input{Bitmaps: table.Bitmaps(), Mode: mode, Budget: 10}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in.Owner = socialgraph.UserID(i % ds.NumUsers())
					benchSink += len(bc.p.Select(in, nil))
				}
			})
		}
	}
}

// BenchmarkBuildRing times ring construction — hashing, the position sort
// and the finger tables — at the paper's Facebook size.
func BenchmarkBuildRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += mustRing(b, trace.PaperFacebookUsers, Config{}).NumNodes()
	}
}

// BenchmarkHopCount times one greedy lookup: a reader routing to another
// user's profile key.
func BenchmarkHopCount(b *testing.B) {
	const n = trace.PaperFacebookUsers
	ring := mustRing(b, n, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := socialgraph.UserID(i % n)
		benchSink += ring.HopCount(from, ring.Key(socialgraph.UserID((i*7919+1)%n)))
	}
}
