// Package socialgraph provides the social-graph substrate for the study: an
// adjacency-list graph that is either undirected (Facebook friendship) or
// directed (Twitter follower links), degree statistics, traversals, CSV
// serialization, and the configuration-model generator used to synthesize
// datasets calibrated to the paper's traces.
package socialgraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dosn/internal/fault"
)

// UserID identifies a user; IDs are dense indices in [0, NumUsers).
type UserID = int32

// Kind distinguishes friendship graphs from follower graphs.
type Kind int

const (
	// Undirected models mutual friendship (Facebook). Every edge appears in
	// both endpoints' adjacency lists.
	Undirected Kind = iota + 1
	// Directed models follower links (Twitter): an edge u→v means v follows
	// u, i.e. v is in Followers(u) and u is in Followees(v).
	Directed
)

func (k Kind) String() string {
	switch k {
	case Undirected:
		return "undirected"
	case Directed:
		return "directed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Graph is an immutable social graph. Build one with a Builder or a
// generator. The zero value is an empty undirected graph.
type Graph struct {
	kind Kind
	out  [][]UserID // Undirected: neighbors. Directed: followers of u.
	in   [][]UserID // Directed only: followees of u (users u follows).
}

// Builder accumulates edges and produces a normalized Graph.
type Builder struct {
	kind Kind
	n    int
	src  []UserID
	dst  []UserID
}

// NewBuilder returns a Builder for a graph of the given kind with n users.
func NewBuilder(kind Kind, n int) *Builder {
	return &Builder{kind: kind, n: n}
}

// Grow reserves capacity for n additional edges, so bulk constructions
// (generators, subgraph induction) that know their edge count up front pay
// two exact allocations instead of append doubling.
func (b *Builder) Grow(n int) {
	b.src = slices.Grow(b.src, n)
	b.dst = slices.Grow(b.dst, n)
}

// AddEdge records an edge. For Undirected graphs the edge is symmetric; for
// Directed graphs it means "v follows u" (v receives u's posts). Self-loops
// and out-of-range endpoints are ignored.
func (b *Builder) AddEdge(u, v UserID) {
	if u == v || u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// Build normalizes (sorts, deduplicates) and returns the graph. The
// adjacency lists are views into one flat arena per direction (a counting
// pass sizes every node's range exactly), so building a graph costs two
// large allocations per direction instead of one growing slice per node.
// List contents are identical to the per-node-append construction this
// replaced: dedupSorted canonicalizes each range in place.
func (b *Builder) Build() *Graph {
	g := &Graph{kind: b.kind}
	g.out = adjacencyViews(b.n, b.src, b.dst, b.kind == Undirected, false)
	canonicalize(g.out)
	if b.kind == Directed {
		g.in = adjacencyViews(b.n, b.src, b.dst, false, true)
		canonicalize(g.in)
	}
	return g
}

// canonicalize sorts and deduplicates every row in place, the two halves of
// the row range concurrently: a row is touched by exactly one half, so the
// result cannot depend on the overlap.
func canonicalize(rows [][]UserID) {
	half := func(rows [][]UserID) func() {
		return func() {
			for u := range rows {
				rows[u] = dedupSorted(rows[u])
			}
		}
	}
	mid := len(rows) / 2
	fault.Parallel(half(rows[:mid]), half(rows[mid:]))
}

// adjacencyViews bins the edge list into per-node slices backed by a single
// arena. Forward mode appends dst to src's row (and, for undirected graphs,
// src to dst's row); reversed mode appends src to dst's row (the followee
// lists of a directed graph). Nodes with no entries keep a nil row, exactly
// as the append-based construction left them.
func adjacencyViews(n int, src, dst []UserID, undirected, reversed bool) [][]UserID {
	deg := make([]int32, n+1)
	for i := range src {
		if reversed {
			deg[dst[i]+1]++
		} else {
			deg[src[i]+1]++
			if undirected {
				deg[dst[i]+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		deg[u+1] += deg[u]
	}
	arena := make([]UserID, deg[n])
	cur := make([]int32, n)
	for u := 0; u < n; u++ {
		cur[u] = deg[u]
	}
	for i := range src {
		if reversed {
			arena[cur[dst[i]]] = src[i]
			cur[dst[i]]++
		} else {
			arena[cur[src[i]]] = dst[i]
			cur[src[i]]++
			if undirected {
				arena[cur[dst[i]]] = src[i]
				cur[dst[i]]++
			}
		}
	}
	rows := make([][]UserID, n)
	for u := 0; u < n; u++ {
		if lo, hi := deg[u], deg[u+1]; lo < hi {
			rows[u] = arena[lo:hi:hi]
		}
	}
	return rows
}

func dedupSorted(s []UserID) []UserID {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// Kind returns whether the graph is directed or undirected.
func (g *Graph) Kind() Kind {
	if g.kind == 0 {
		return Undirected
	}
	return g.kind
}

// NumUsers returns the number of users.
func (g *Graph) NumUsers() int { return len(g.out) }

// Neighbors returns the replica-candidate set for u, which is also the
// paper's "user degree" population: friends for an undirected graph,
// followers for a directed one (the paper replicates a Twitter user's
// profile on his followers). The returned slice must not be modified.
func (g *Graph) Neighbors(u UserID) []UserID {
	if int(u) >= len(g.out) || u < 0 {
		return nil
	}
	return g.out[u]
}

// Followees returns the users u follows (directed graphs only; nil for
// undirected graphs). The returned slice must not be modified.
func (g *Graph) Followees(u UserID) []UserID {
	if g.in == nil || int(u) >= len(g.in) || u < 0 {
		return nil
	}
	return g.in[u]
}

// Degree returns len(Neighbors(u)).
func (g *Graph) Degree(u UserID) int { return len(g.Neighbors(u)) }

// HasEdge reports whether v is a neighbor (or follower) of u.
func (g *Graph) HasEdge(u, v UserID) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// NumEdges returns the number of distinct edges (each undirected edge
// counted once, each directed edge once).
func (g *Graph) NumEdges() int {
	total := 0
	for u := range g.out {
		total += len(g.out[u])
	}
	if g.Kind() == Undirected {
		return total / 2
	}
	return total
}

// AverageDegree returns the mean of Degree over all users.
func (g *Graph) AverageDegree() float64 {
	if g.NumUsers() == 0 {
		return 0
	}
	total := 0
	for u := range g.out {
		total += len(g.out[u])
	}
	return float64(total) / float64(g.NumUsers())
}

// MemoryBytes estimates the resident size of the adjacency lists (backing-
// array capacity), the graph's share of a dataset's memory footprint.
func (g *Graph) MemoryBytes() int {
	const idBytes = 4
	const sliceHeader = 24
	b := (cap(g.out) + cap(g.in)) * sliceHeader
	for u := range g.out {
		b += cap(g.out[u]) * idBytes
	}
	for u := range g.in {
		b += cap(g.in[u]) * idBytes
	}
	return b
}

// DegreeHistogram returns counts[d] = number of users with degree d
// (the series plotted in the paper's Fig. 2).
func (g *Graph) DegreeHistogram() []int {
	maxDeg := 0
	for u := range g.out {
		if d := len(g.out[u]); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg+1)
	for u := range g.out {
		counts[len(g.out[u])]++
	}
	return counts
}

// UsersWithDegree returns all users whose degree equals d, in ID order.
func (g *Graph) UsersWithDegree(d int) []UserID {
	var out []UserID
	for u := range g.out {
		if len(g.out[u]) == d {
			out = append(out, UserID(u))
		}
	}
	return out
}

// ModalDegree returns the degree held by the most users with a friend,
// breaking ties toward the smaller degree, or 0 if no user has a friend. The
// paper picks degree 10 because "both the datasets have the most number of
// users with this degree".
func (g *Graph) ModalDegree() int {
	hist := g.DegreeHistogram()
	best, bestCount := 0, 0
	for d := 1; d < len(hist); d++ {
		if hist[d] > bestCount {
			best, bestCount = d, hist[d]
		}
	}
	return best
}

// InducedSubgraph returns the subgraph on the given users, plus the mapping
// from new dense IDs to original IDs, which is ascending. Edges with an
// endpoint outside the set are dropped; duplicate and out-of-range users are
// skipped. Users in any other order are sorted into a copy first, so every
// call takes the one construction below.
func (g *Graph) InducedSubgraph(users []UserID) (*Graph, []UserID) {
	if !slices.IsSorted(users) {
		users = slices.Sorted(slices.Values(users))
	}
	// Dense remap column (-1 = dropped) instead of a map: duplicates and
	// out-of-range entries skip exactly as the map-keyed version skipped
	// them.
	keep := make([]UserID, g.NumUsers())
	for i := range keep {
		keep[i] = -1
	}
	orig := make([]UserID, 0, len(users))
	for _, u := range users {
		if u < 0 || int(u) >= g.NumUsers() || keep[u] >= 0 {
			continue
		}
		keep[u] = UserID(len(orig))
		orig = append(orig, u)
	}
	// orig ascends, so the remap is monotone and a kept row filtered in
	// place is already sorted and duplicate-free: the arena rows are built
	// directly, with no edge arrays and no per-row re-sort.
	sub := &Graph{kind: g.Kind(), out: filterRows(g.out, orig, keep)}
	if sub.kind == Directed {
		sub.in = filterRows(g.in, orig, keep)
	}
	return sub, orig
}

// filterRows builds one direction of an induced subgraph under a monotone
// remap: new row i is rows[orig[i]] restricted to kept users and renamed
// through keep. One counting pass sizes the arena exactly; rows left empty
// stay nil, as Build leaves them.
func filterRows(rows [][]UserID, orig, keep []UserID) [][]UserID {
	total := 0
	for _, u := range orig {
		for _, v := range rows[u] {
			if keep[v] >= 0 {
				total++
			}
		}
	}
	arena := make([]UserID, total)
	out := make([][]UserID, len(orig))
	w := 0
	for i, u := range orig {
		lo := w
		for _, v := range rows[u] {
			if nv := keep[v]; nv >= 0 {
				arena[w] = nv
				w++
			}
		}
		if w > lo {
			out[i] = arena[lo:w:w]
		}
	}
	return out
}

// WriteEdges writes the graph as "src,dst" CSV lines preceded by a header
// encoding kind and size, suitable for ReadEdges.
func (g *Graph) WriteEdges(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dosn-graph %s %d\n", g.Kind(), g.NumUsers()); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for u := range g.out {
		for _, v := range g.out[u] {
			if g.Kind() == Undirected && UserID(u) > v {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d,%d\n", u, v); err != nil {
				return fmt.Errorf("write edge: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ErrBadGraphFormat is returned by ReadEdges for malformed input.
var ErrBadGraphFormat = errors.New("socialgraph: malformed graph file")

// MaxUsers is the largest user count ReadEdges accepts from a graph file's
// header. Build allocates about 32 B per header user even when the file has
// no edges, so 2³¹−1 users would ask for about 69 GB. 2²⁴ is 16 times the
// 1 M-user huge tier and caps what a header alone can ask for at 0.5 GB.
const MaxUsers = 1 << 24

// ReadEdges parses a graph written by WriteEdges.
func ReadEdges(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing header", ErrBadGraphFormat)
	}
	var kindStr string
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "# dosn-graph %s %d", &kindStr, &n); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadGraphFormat, sc.Text())
	}
	if n < 0 || n > MaxUsers {
		return nil, fmt.Errorf("%w: line 1: user count %d outside [0, %d]", ErrBadGraphFormat, n, MaxUsers)
	}
	var kind Kind
	switch kindStr {
	case Undirected.String():
		kind = Undirected
	case Directed.String():
		kind = Directed
	default:
		return nil, fmt.Errorf("%w: line 1: graph kind %q is neither %q nor %q", ErrBadGraphFormat, kindStr, Undirected, Directed)
	}
	b := NewBuilder(kind, n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		comma := strings.IndexByte(text, ',')
		if comma < 0 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadGraphFormat, line, text)
		}
		// IDs parse at 32 bits: a wider one would wrap onto a real user.
		u, err1 := strconv.ParseInt(text[:comma], 10, 32)
		v, err2 := strconv.ParseInt(text[comma+1:], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadGraphFormat, line, text)
		}
		b.AddEdge(UserID(u), UserID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read edges: %w", err)
	}
	return b.Build(), nil
}
