package socialgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// benchPairs draws a friendship edge list the way the configuration model
// produces one: meanDegree stubs a user, shuffled and paired off, so rows
// arrive unsorted with the occasional duplicate and self-loop.
func benchPairs(n, meanDegree int) []UserID {
	rng := rand.New(rand.NewSource(1))
	stubs := make([]UserID, 0, n*meanDegree)
	for u := 0; u < n; u++ {
		for i := 0; i < meanDegree; i++ {
			stubs = append(stubs, UserID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	return stubs[:len(stubs)&^1]
}

// benchFollowerPairs draws a follower edge list the way the Twitter
// synthesis adds one: owners in ascending order, each with 1–151 distinct
// followers (mean 76) in draw order.
func benchFollowerPairs(n int) []UserID {
	rng := rand.New(rand.NewSource(1))
	seen := make([]int32, n)
	var pairs []UserID
	for u := 0; u < n; u++ {
		for want := 1 + rng.Intn(151); want > 0; {
			if f := rng.Intn(n); f != u && seen[f] != int32(u)+1 {
				seen[f] = int32(u) + 1
				pairs = append(pairs, UserID(u), UserID(f))
				want--
			}
		}
	}
	return pairs
}

var benchSink *Graph

// BenchmarkBuild times Builder.Build — the counting pass and the scatters —
// on configuration-model pairs (mean degree 41, the paper's Facebook trace)
// read as either kind, and on follower-shaped directed pairs (mean degree
// 76, the Twitter trace), at paper size and at the large tier's 100,000
// users. Build consumes its edge list, so each iteration copies it in with
// the timer stopped.
func BenchmarkBuild(b *testing.B) {
	inputs := []struct {
		name  string
		kind  Kind
		n     int
		pairs func(n int) []UserID
	}{
		{"undirected", Undirected, 13884, func(n int) []UserID { return benchPairs(n, 41) }},
		{"directed", Directed, 13884, func(n int) []UserID { return benchPairs(n, 41) }},
		{"follower", Directed, 14933, benchFollowerPairs},
		{"undirected", Undirected, 100000, func(n int) []UserID { return benchPairs(n, 41) }},
		{"follower", Directed, 100000, benchFollowerPairs},
	}
	for _, in := range inputs {
		pairs := in.pairs(in.n)
		b.Run(fmt.Sprintf("%s-%d", in.name, in.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := NewBuilder(in.kind, in.n)
				bld.pairs = slices.Clone(pairs)
				b.StartTimer()
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
	pairs := benchPairs(n, deg)
	rng := rand.New(rand.NewSource(2))
	var kept []UserID
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.93 {
			kept = append(kept, UserID(u))
		}
	}
	for _, kind := range []Kind{Undirected, Directed} {
		bld := NewBuilder(kind, n)
		bld.pairs = slices.Clone(pairs)
		g := bld.Build()
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = g.InducedSubgraph(kept)
			}
		})
	}
}
