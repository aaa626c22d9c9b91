package socialgraph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(Undirected, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func TestBuilderUndirected(t *testing.T) {
	g := buildTriangle(t)
	if g.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d, want 3", g.NumUsers())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	for u := UserID(0); u < 3; u++ {
		if d := g.Degree(u); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, d)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge must be visible from both endpoints")
	}
}

func TestBuilderIgnoresBadEdges(t *testing.T) {
	b := NewBuilder(Undirected, 3)
	b.AddEdge(0, 0)  // self loop
	b.AddEdge(0, 5)  // out of range
	b.AddEdge(-1, 1) // negative
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 0) // reverse duplicate
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees = %d,%d,%d want 1,1,0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestDirectedFollowerSemantics(t *testing.T) {
	// Edge u→v means v follows u.
	b := NewBuilder(Directed, 3)
	b.AddEdge(0, 1) // 1 follows 0
	b.AddEdge(0, 2) // 2 follows 0
	b.AddEdge(1, 2) // 2 follows 1
	g := b.Build()

	if got := g.Neighbors(0); len(got) != 2 {
		t.Errorf("user 0 should have 2 followers, got %v", got)
	}
	if got := g.Followees(2); len(got) != 2 {
		t.Errorf("user 2 should follow 2 users, got %v", got)
	}
	if g.Degree(2) != 0 {
		t.Errorf("user 2 has no followers, Degree = %d", g.Degree(2))
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestNeighborsOutOfRange(t *testing.T) {
	g := buildTriangle(t)
	if g.Neighbors(99) != nil || g.Neighbors(-1) != nil {
		t.Error("out-of-range Neighbors should be nil")
	}
}

func TestDegreeHistogramAndModalDegree(t *testing.T) {
	b := NewBuilder(Undirected, 5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	// degrees: 0→3, 1..3→1, 4→0
	g := b.Build()
	hist := g.DegreeHistogram()
	want := []int{1, 3, 0, 1}
	if !reflect.DeepEqual(hist, want) {
		t.Errorf("DegreeHistogram = %v, want %v", hist, want)
	}
	if d := g.ModalDegree(); d != 1 {
		t.Errorf("ModalDegree() = %d, want 1", d)
	}
	if d := NewBuilder(Undirected, 3).Build().ModalDegree(); d != 0 {
		t.Errorf("ModalDegree() of a graph without edges = %d, want 0", d)
	}
}

func TestUsersWithDegree(t *testing.T) {
	g := buildTriangle(t)
	if got := g.UsersWithDegree(2); len(got) != 3 {
		t.Errorf("UsersWithDegree(2) = %v, want all 3 users", got)
	}
	if got := g.UsersWithDegree(7); got != nil {
		t.Errorf("UsersWithDegree(7) = %v, want nil", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(Undirected, 6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.Build()
	sub, orig := g.InducedSubgraph([]UserID{1, 2, 4})
	if sub.NumUsers() != 3 {
		t.Fatalf("sub users = %d, want 3", sub.NumUsers())
	}
	if sub.NumEdges() != 1 {
		t.Errorf("sub edges = %d, want 1 (only 1-2 survives)", sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 1 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("orig mapping = %v", orig)
	}
	// Unsorted input is sorted first: the mapping ascends, whatever the
	// input order.
	sub2, orig2 := g.InducedSubgraph([]UserID{4, 1, 2})
	if !reflect.DeepEqual(orig2, orig) || !reflect.DeepEqual(sub2, sub) {
		t.Errorf("unsorted input: mapping %v, want %v (and the same graph)", orig2, orig)
	}
}

// randomGraph is the input of the graph-invariant tests: a configuration
// model graph of about the given mean degree, or — for Directed — as many
// uniformly drawn follower links.
func randomGraph(kind Kind, n, meanDegree int, rng *rand.Rand) *Graph {
	if kind == Undirected {
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = 1 + rng.Intn(2*meanDegree-1)
		}
		return GenerateConfigurationModel(degrees, rng)
	}
	b := NewBuilder(Directed, n)
	for i := 0; i < n*meanDegree; i++ {
		b.AddEdge(UserID(rng.Intn(n)), UserID(rng.Intn(n)))
	}
	return b.Build()
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Undirected, Directed} {
		t.Run(kind.String(), func(t *testing.T) {
			g := randomGraph(kind, 50, 6, rand.New(rand.NewSource(7)))
			var buf bytes.Buffer
			if err := g.WriteEdges(&buf); err != nil {
				t.Fatalf("WriteEdges: %v", err)
			}
			g2, err := ReadEdges(&buf)
			if err != nil {
				t.Fatalf("ReadEdges: %v", err)
			}
			if g2.NumUsers() != g.NumUsers() || g2.NumEdges() != g.NumEdges() {
				t.Fatalf("round trip mismatch: %d/%d users, %d/%d edges",
					g2.NumUsers(), g.NumUsers(), g2.NumEdges(), g.NumEdges())
			}
			for u := 0; u < g.NumUsers(); u++ {
				if !reflect.DeepEqual(g.Neighbors(UserID(u)), g2.Neighbors(UserID(u))) {
					t.Fatalf("neighbors of %d differ", u)
				}
			}
		})
	}
}

func TestReadEdgesErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{name: "empty", in: ""},
		{name: "bad header", in: "hello\n"},
		{name: "bad line", in: "# dosn-graph undirected 3\nnot-an-edge\n"},
		{name: "non numeric", in: "# dosn-graph undirected 3\na,b\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadEdges(strings.NewReader(tt.in))
			if !errors.Is(err, ErrBadGraphFormat) {
				t.Errorf("ReadEdges(%q) err = %v, want ErrBadGraphFormat", tt.in, err)
			}
		})
	}
}

// TestReadEdgesRejectsUnknownKind: the header's kind word must be exactly
// "undirected" or "directed". Any other word — a capitalized "Directed", a
// typo — used to load as a friendship graph, mirroring every follower edge.
func TestReadEdgesRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{"Directed", "Undirected", "direct", "weird"} {
		_, err := ReadEdges(strings.NewReader("# dosn-graph " + kind + " 3\n1,0\n"))
		if !errors.Is(err, ErrBadGraphFormat) || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("kind %q: err = %v, want ErrBadGraphFormat naming line 1", kind, err)
		}
	}
	for _, want := range []Kind{Undirected, Directed} {
		g, err := ReadEdges(strings.NewReader("# dosn-graph " + want.String() + " 3\n1,0\n"))
		if err != nil || g.Kind() != want {
			t.Errorf("kind %s: got %v, err %v", want, g, err)
		}
	}
}

// TestReadEdgesRejectsWideIDs: an endpoint that does not fit int32 is a
// format error naming its line, not a wrapped edge between real users
// (4294967297,2 used to load as the edge 1–2), and the header's user count
// must lie in [0, MaxUsers]. Endpoints that fit but lie outside the graph
// are still skipped.
func TestReadEdgesRejectsWideIDs(t *testing.T) {
	for _, tt := range []struct{ in, line string }{
		{"# dosn-graph undirected 3\n4294967297,2\n", "line 2:"},
		{"# dosn-graph undirected 3\n0,1\n1,-4294967295\n", "line 3:"},
		{"# dosn-graph directed 3\n0,2147483648\n", "line 2:"},
		{"# dosn-graph undirected -1\n", ""},
		{"# dosn-graph undirected 4294967296\n", ""},
	} {
		_, err := ReadEdges(strings.NewReader(tt.in))
		if !errors.Is(err, ErrBadGraphFormat) {
			t.Errorf("ReadEdges(%q) err = %v, want ErrBadGraphFormat", tt.in, err)
			continue
		}
		if !strings.Contains(err.Error(), tt.line) {
			t.Errorf("ReadEdges(%q) err = %v, want it to name %q", tt.in, err, tt.line)
		}
	}
	g, err := ReadEdges(strings.NewReader("# dosn-graph undirected 3\n0,1\n2,2147483647\n"))
	if err != nil || g.NumUsers() != 3 || g.NumEdges() != 1 {
		t.Errorf("out-of-graph int32 endpoint: err %v; want it skipped", err)
	}
}

// TestReadEdgesRejectsOversizedHeader: a header user count above MaxUsers
// fails with ErrBadGraphFormat before anything proportional to the count is
// allocated (a 2³¹−1 header would otherwise ask for about 69 GB). The heap
// delta shows it; the limit itself is not loaded here, since it is meant to
// be large.
func TestReadEdgesRejectsOversizedHeader(t *testing.T) {
	for _, n := range []int{MaxUsers + 1, 1<<31 - 1} {
		in := fmt.Sprintf("# dosn-graph undirected %d\n", n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadEdges(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadGraphFormat) {
			t.Errorf("ReadEdges(%q) err = %v, want ErrBadGraphFormat", in, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("ReadEdges(%q) allocated %d B before failing, want under 1 MiB", in, grew)
		}
	}
}

func TestGenerateConfigurationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	degrees := make([]int, 100)
	for i := range degrees {
		degrees[i] = 4
	}
	g := GenerateConfigurationModel(degrees, rng)
	avg := g.AverageDegree()
	if avg < 3 || avg > 4.01 { // duplicates/self-loops dropped → slightly below 4
		t.Errorf("average degree = %.2f, want ≈4", avg)
	}
}

func TestGeneratorsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := GenerateConfigurationModel(nil, rng); g.NumUsers() != 0 || g.NumEdges() != 0 {
		t.Error("empty degree sequence should yield the empty graph")
	}
	if g := GenerateConfigurationModel([]int{0, 0, 0}, rng); g.NumUsers() != 3 || g.NumEdges() != 0 {
		t.Error("all-zero degrees should yield isolated users")
	}
	if g := GenerateConfigurationModel([]int{3}, rng); g.NumUsers() != 1 || g.NumEdges() != 0 {
		t.Error("a lone user's stubs can only pair into dropped self-loops")
	}
	// An odd stub total leaves one stub unpaired.
	if g := GenerateConfigurationModel([]int{1, 1, 1}, rng); g.NumEdges() != 1 {
		t.Errorf("three single stubs pair into one edge, got %d", g.NumEdges())
	}
}

func TestQuickUndirectedDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 2
		m := int(mRaw%5) + 1
		g := randomGraph(Undirected, n, m, rand.New(rand.NewSource(seed)))
		sum := 0
		for u := 0; u < g.NumUsers(); u++ {
			sum += g.Degree(UserID(u))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickNeighborsSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(Undirected, 60, 6, rand.New(rand.NewSource(seed)))
		for u := 0; u < g.NumUsers(); u++ {
			ns := g.Neighbors(UserID(u))
			for i := 1; i < len(ns); i++ {
				if ns[i] <= ns[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickGeneratorDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomGraph(Undirected, 80, 6, rand.New(rand.NewSource(seed)))
		g2 := randomGraph(Undirected, 80, 6, rand.New(rand.NewSource(seed)))
		if g1.NumEdges() != g2.NumEdges() {
			return false
		}
		for u := 0; u < g1.NumUsers(); u++ {
			if !reflect.DeepEqual(g1.Neighbors(UserID(u)), g2.Neighbors(UserID(u))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
