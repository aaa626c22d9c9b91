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
	// pairs holds the edges interleaved: edge i is (pairs[2i], pairs[2i+1]).
	pairs []UserID
}

// NewBuilder returns a Builder for a graph of the given kind with n users.
func NewBuilder(kind Kind, n int) *Builder {
	return &Builder{kind: kind, n: n}
}

// Grow reserves capacity for n additional edges, so a generator that knows
// its edge count up front pays one exact allocation, which Build then reuses
// as the rows' arena, instead of append doubling.
func (b *Builder) Grow(n int) {
	b.pairs = slices.Grow(b.pairs, 2*n)
}

// AddEdge records an edge. For Undirected graphs the edge is symmetric; for
// Directed graphs it means "v follows u" (v receives u's posts). Self-loops
// and out-of-range endpoints are ignored.
func (b *Builder) AddEdge(u, v UserID) {
	if u == v || u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return
	}
	b.pairs = append(b.pairs, u, v)
}

// Build returns the graph, every adjacency row sorted and deduplicated, and
// leaves the builder empty. It sorts nothing: a counting pass sizes every
// row, one scatter buckets each edge under its row, and a second walks those
// buckets in ascending row order, appending the bucket's row to the rows its
// entries name, which therefore fill in order; a linear pass then drops the
// adjacent duplicates. A directed graph's second scatter makes the followee
// rows, and a third makes the follower rows out of them. The rows are a
// function of the edge multiset alone: a row's capacity is its entry count
// before deduplication, an empty row is nil, and the edge list itself
// becomes the rows' arena. Self-loops are skipped, so a pair list handed
// over whole (the configuration model's stubs) builds as AddEdge would.
func (b *Builder) Build() *Graph {
	n, pairs, directed := b.n, b.pairs, b.kind == Directed
	b.pairs = nil
	// Row u of out spans outAt[u]..outAt[u+1] before deduplication; for an
	// undirected graph, whose rows hold both endpoints, in is the same table.
	outAt := make([]int32, n+1)
	inAt := outAt
	if directed {
		inAt = make([]int32, n+1)
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			outAt[u+1]++
			inAt[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		outAt[u+1] += outAt[u]
		if directed {
			inAt[u+1] += inAt[u]
		}
	}
	// Bucket u holds row u's entries in edge order. Buckets fill from their
	// ends, so cur finishes at every row's start, where the last scatter
	// writes from.
	bucket := make([]UserID, outAt[n])
	cur := slices.Clone(outAt[1:])
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		if u == v {
			continue
		}
		cur[u]--
		bucket[cur[u]] = v
		if !directed {
			cur[v]--
			bucket[cur[v]] = u
		}
	}
	g := &Graph{kind: b.kind}
	if !directed {
		scatter(pairs, cur, bucket, outAt[:n], outAt[1:])
		g.out = dedupRows(pairs, outAt, cur)
		return g
	}
	out, in := pairs[:outAt[n]], pairs[outAt[n]:]
	inEnd := slices.Clone(inAt[:n])
	scatter(in, inEnd, bucket, outAt[:n], outAt[1:])
	g.in = dedupRows(in, inAt, inEnd)
	scatter(out, cur, in, inAt[:n], inEnd)
	g.out = dedupRows(out, outAt, cur)
	return g
}

// scatter walks the buckets src[from[x]:to[x]] in ascending x and appends x
// to every row r a bucket lists, at arena[end[r]].
func scatter(arena []UserID, end []int32, src []UserID, from, to []int32) {
	for x := range from {
		for _, r := range src[from[x]:to[x]] {
			arena[end[r]] = UserID(x)
			end[r]++
		}
	}
}

// dedupRows drops the adjacent duplicates of every sorted row at[u]..end[u]
// in place, moves end[u] to the last kept entry, and returns the rows as
// views of the arena with capacity up to at[u+1], nil where empty.
func dedupRows(arena []UserID, at, end []int32) [][]UserID {
	rows := make([][]UserID, len(end))
	for u := range end {
		lo, hi := at[u], at[u+1]
		if lo == hi {
			continue
		}
		w := lo + 1
		for _, x := range arena[lo+1 : end[u]] {
			if x != arena[w-1] {
				arena[w] = x
				w++
			}
		}
		end[u] = w
		rows[u] = arena[lo:w:hi]
	}
	return rows
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
