package socialgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// legacyBuild is the pre-arena Builder.Build: one growing adjacency slice
// per node, appended edge by edge. The arena construction must produce
// node-for-node identical lists.
func legacyBuild(kind Kind, n int, src, dst []UserID) *Graph {
	g := &Graph{kind: kind, out: make([][]UserID, n)}
	for i := range src {
		g.out[src[i]] = append(g.out[src[i]], dst[i])
		if kind == Undirected {
			g.out[dst[i]] = append(g.out[dst[i]], src[i])
		}
	}
	if kind == Directed {
		g.in = make([][]UserID, n)
		for i := range src {
			g.in[dst[i]] = append(g.in[dst[i]], src[i])
		}
	}
	for u := range g.out {
		g.out[u] = legacyDedup(g.out[u])
	}
	for u := range g.in {
		g.in[u] = legacyDedup(g.in[u])
	}
	return g
}

// unzip splits a builder's interleaved edge list into copies of its two
// endpoint columns.
func unzip(pairs []UserID) (src, dst []UserID) {
	for i := 0; i+1 < len(pairs); i += 2 {
		src = append(src, pairs[i])
		dst = append(dst, pairs[i+1])
	}
	return src, dst
}

func legacyDedup(s []UserID) []UserID {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// edgeBatch is a quick.Generator for random edge lists with duplicates,
// self-loops and out-of-range endpoints (which AddEdge must drop), plus
// isolated nodes (which must keep nil adjacency rows).
type edgeBatch struct {
	kind Kind
	n    int
	u, v []UserID
}

func (edgeBatch) Generate(r *rand.Rand, size int) reflect.Value {
	kind := Undirected
	if r.Intn(2) == 0 {
		kind = Directed
	}
	n := r.Intn(30)
	e := edgeBatch{kind: kind, n: n}
	for i := 0; i < r.Intn(120); i++ {
		// Bias into range but include out-of-range and negative endpoints.
		e.u = append(e.u, UserID(r.Intn(n+6)-3))
		e.v = append(e.v, UserID(r.Intn(n+6)-3))
	}
	return reflect.ValueOf(e)
}

// TestQuickArenaBuildMatchesLegacyBuild: the flat-arena adjacency
// construction is observationally identical to the per-node append build —
// same neighbor and followee lists (including nil rows for isolated users),
// same degrees, same edge counts.
func TestQuickArenaBuildMatchesLegacyBuild(t *testing.T) {
	prop := func(e edgeBatch) bool {
		b := NewBuilder(e.kind, e.n)
		for i := range e.u {
			b.AddEdge(e.u[i], e.v[i])
		}
		src, dst := unzip(b.pairs) // Build hands the edge list over as its arena
		got := b.Build()
		want := legacyBuild(e.kind, e.n, src, dst)
		if got.NumUsers() != want.NumUsers() || got.NumEdges() != want.NumEdges() {
			return false
		}
		for u := 0; u < e.n; u++ {
			id := UserID(u)
			if !reflect.DeepEqual(got.Neighbors(id), want.Neighbors(id)) {
				t.Logf("user %d neighbors: arena %v, legacy %v", u, got.Neighbors(id), want.Neighbors(id))
				return false
			}
			if !reflect.DeepEqual(got.Followees(id), want.Followees(id)) {
				t.Logf("user %d followees: arena %v, legacy %v", u, got.Followees(id), want.Followees(id))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestArenaBuildIsolatedRowsStayNil pins the nil-vs-empty convention the
// append-based build had: users with no edges report nil, not zero-length
// views into the arena.
func TestArenaBuildIsolatedRowsStayNil(t *testing.T) {
	b := NewBuilder(Undirected, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.Neighbors(2) != nil {
		t.Errorf("isolated user's neighbors = %v, want nil", g.Neighbors(2))
	}
	if got := g.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", got)
	}
}

// TestBuilderGrowKeepsSemantics: Grow is purely a capacity reservation.
func TestBuilderGrowKeepsSemantics(t *testing.T) {
	a := NewBuilder(Directed, 4)
	bGrown := NewBuilder(Directed, 4)
	bGrown.Grow(16)
	for _, e := range [][2]UserID{{0, 1}, {1, 2}, {0, 1}, {3, 3}, {2, 0}} {
		a.AddEdge(e[0], e[1])
		bGrown.AddEdge(e[0], e[1])
	}
	ga, gb := a.Build(), bGrown.Build()
	for u := UserID(0); u < 4; u++ {
		if !reflect.DeepEqual(ga.Neighbors(u), gb.Neighbors(u)) || !reflect.DeepEqual(ga.Followees(u), gb.Followees(u)) {
			t.Fatalf("user %d differs between grown and ungrown builders", u)
		}
	}
}

// TestQuickInducedMonotoneMatchesBuilder: InducedSubgraph's direct arena
// construction and a Builder fed the surviving edges are the same graph —
// same rows in both directions, nil rows for users left isolated, same memory
// estimate — for both kinds, skipping duplicates and out-of-range IDs; and
// users in any other order give the ascending call's graph and mapping.
func TestQuickInducedMonotoneMatchesBuilder(t *testing.T) {
	sawIsolated := false
	prop := func(e edgeBatch, pick uint64) bool {
		b := NewBuilder(e.kind, e.n)
		for i := range e.u {
			b.AddEdge(e.u[i], e.v[i])
		}
		g := b.Build()
		// An ascending subset chosen by pick's bits, salted with entries
		// InducedSubgraph must skip.
		users := []UserID{-1}
		for u := 0; u < e.n; u++ {
			if pick>>(u%64)&1 == 1 {
				users = append(users, UserID(u), UserID(u))
			}
		}
		users = append(users, UserID(e.n))

		got, orig := g.InducedSubgraph(users)
		keep := make([]UserID, e.n)
		for i := range keep {
			keep[i] = -1
		}
		for i, u := range orig {
			keep[u] = UserID(i)
		}
		want := inducedByBuilder(g, orig, keep)
		if !reflect.DeepEqual(got, want) || got.MemoryBytes() != want.MemoryBytes() {
			t.Logf("kind %v users %v:\n direct  %+v\n builder %+v", e.kind, users, got, want)
			return false
		}
		for u := range orig {
			if got.out[u] == nil {
				sawIsolated = true
			}
		}
		// Any other order is sorted first: same graph, same mapping.
		rev := slices.Clone(users)
		slices.Reverse(rev)
		sub, back := g.InducedSubgraph(rev)
		if !reflect.DeepEqual(sub, got) || !reflect.DeepEqual(back, orig) {
			t.Logf("kind %v: reversed users %v gave mapping %v, want %v", e.kind, rev, back, orig)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if !sawIsolated {
		t.Error("no case left a kept user isolated; the nil-row convention went unchecked")
	}
}

// inducedByBuilder is the reference induced subgraph: the surviving edges of
// orig (renamed through keep) go through a Builder, which re-sorts every row.
func inducedByBuilder(g *Graph, orig, keep []UserID) *Graph {
	b := NewBuilder(g.Kind(), len(orig))
	for _, u := range orig {
		nu := keep[u]
		for _, v := range g.out[u] {
			if nv := keep[v]; nv >= 0 && (g.Kind() == Directed || nu < nv) { // add undirected edges once
				b.AddEdge(nu, nv)
			}
		}
	}
	return b.Build()
}

// sameRows reports whether two graphs have the same kind and, in both
// directions, row for row the same entries, the same nil rows and the same
// capacities.
func sameRows(a, b *Graph) bool {
	same := func(x, y [][]UserID) bool {
		if len(x) != len(y) {
			return false
		}
		for u := range x {
			if !reflect.DeepEqual(x[u], y[u]) || cap(x[u]) != cap(y[u]) {
				return false
			}
		}
		return true
	}
	return a.Kind() == b.Kind() && same(a.out, b.out) && same(a.in, b.in) && a.MemoryBytes() == b.MemoryBytes()
}

// TestQuickBuildIgnoresEdgeOrder: Build's rows are a function of the edge
// multiset alone. Adding the edges in a shuffled order, and for an
// undirected graph with a random subset of them reversed, gives the same
// rows, nil rows and capacities; and a row's capacity is its entry count
// before deduplication, which MemoryBytes reports.
func TestQuickBuildIgnoresEdgeOrder(t *testing.T) {
	prop := func(e edgeBatch, seed int64) bool {
		outCap, inCap := make([]int, e.n), make([]int, e.n)
		for i := range e.u {
			if u, v := e.u[i], e.v[i]; u != v && u >= 0 && v >= 0 && int(u) < e.n && int(v) < e.n {
				outCap[u]++
				if e.kind == Undirected {
					outCap[v]++
				} else {
					inCap[v]++
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		build := func(order []int, flip func() bool) *Graph {
			b := NewBuilder(e.kind, e.n)
			for _, i := range order {
				if u, v := e.u[i], e.v[i]; flip() {
					b.AddEdge(v, u)
				} else {
					b.AddEdge(u, v)
				}
			}
			return b.Build()
		}
		inOrder := make([]int, len(e.u))
		for i := range inOrder {
			inOrder[i] = i
		}
		never := func() bool { return false }
		want := build(inOrder, never)
		for u := 0; u < e.n; u++ {
			if cap(want.Neighbors(UserID(u))) != outCap[u] || cap(want.Followees(UserID(u))) != inCap[u] {
				t.Logf("kind %v user %d: capacities %d, %d, want %d, %d", e.kind, u,
					cap(want.Neighbors(UserID(u))), cap(want.Followees(UserID(u))), outCap[u], inCap[u])
				return false
			}
		}
		if got := build(rng.Perm(len(e.u)), never); !sameRows(got, want) {
			t.Logf("kind %v, shuffled: %+v, want %+v", e.kind, got, want)
			return false
		}
		if e.kind == Undirected {
			flip := func() bool { return rng.Intn(2) == 0 }
			if got := build(rng.Perm(len(e.u)), flip); !sameRows(got, want) {
				t.Logf("shuffled and reversed: %+v, want %+v", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickStubHandOverMatchesAddEdge: GenerateConfigurationModel hands its
// shuffled stub array to the builder as the edge list. That is the graph
// AddEdge builds from the same pairs, where AddEdge refuses the self-loops
// and an odd count leaves the last stub unpaired.
func TestQuickStubHandOverMatchesAddEdge(t *testing.T) {
	sawOdd, sawSelfLoop := false, false
	prop := func(raw []uint8, seed int64) bool {
		degrees := make([]int, len(raw)%24)
		var stubs []UserID
		for u := range degrees {
			degrees[u] = int(raw[u] % 8)
			for i := 0; i < degrees[u]; i++ {
				stubs = append(stubs, UserID(u))
			}
		}
		got := GenerateConfigurationModel(degrees, rand.New(rand.NewSource(seed)))

		rand.New(rand.NewSource(seed)).Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		b := NewBuilder(Undirected, len(degrees))
		for i := 0; i+1 < len(stubs); i += 2 {
			b.AddEdge(stubs[i], stubs[i+1])
			sawSelfLoop = sawSelfLoop || stubs[i] == stubs[i+1]
		}
		sawOdd = sawOdd || len(stubs)%2 == 1
		if want := b.Build(); !sameRows(got, want) {
			t.Logf("degrees %v: hand-over %+v, AddEdge %+v", degrees, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if !sawOdd || !sawSelfLoop {
		t.Errorf("odd stub count seen %v, self-loop seen %v: a case went unchecked", sawOdd, sawSelfLoop)
	}
}
