package socialgraph

import (
	"math/rand"
	"testing"
)

// benchEdges draws a paper-scale friendship edge list (13,884 users, mean
// degree 41) the way the configuration model produces one: shuffled stubs
// paired off, so rows arrive unsorted with the occasional duplicate.
func benchEdges(n, meanDegree int) (src, dst []UserID) {
	rng := rand.New(rand.NewSource(1))
	stubs := make([]UserID, 0, n*meanDegree)
	for u := 0; u < n; u++ {
		for i := 0; i < meanDegree; i++ {
			stubs = append(stubs, UserID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		src = append(src, stubs[i])
		dst = append(dst, stubs[i+1])
	}
	return src, dst
}

var benchSink *Graph

// BenchmarkBuild times Builder.Build — binning into the arena plus per-row
// canonicalisation — for both graph kinds at the paper's Facebook size.
func BenchmarkBuild(b *testing.B) {
	const n, deg = 13884, 41
	src, dst := benchEdges(n, deg)
	for _, kind := range []Kind{Undirected, Directed} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld := NewBuilder(kind, n)
				bld.src, bld.dst = src, dst
				benchSink = bld.Build()
			}
		})
	}
}

// BenchmarkInducedSubgraph times the activity filter's graph step: the
// subgraph on an ascending 93 % of the users (the share the paper's filter
// keeps), for both kinds.
func BenchmarkInducedSubgraph(b *testing.B) {
	const n, deg = 13884, 41
	src, dst := benchEdges(n, deg)
	rng := rand.New(rand.NewSource(2))
	var kept []UserID
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.93 {
			kept = append(kept, UserID(u))
		}
	}
	for _, kind := range []Kind{Undirected, Directed} {
		bld := NewBuilder(kind, n)
		bld.src, bld.dst = src, dst
		g := bld.Build()
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = g.InducedSubgraph(kept)
			}
		})
	}
}
