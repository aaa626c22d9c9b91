package trace

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/socialgraph"
)

// rowRef is the pre-columnar row-oriented Dataset implementation, kept as the
// reference the columnar accessors are verified against: a []Activity sorted
// stably by timestamp plus per-user [][]int32 append-built indexes, with the
// map-based interaction counts and the linear [from, to) filters.
type rowRef struct {
	graph      *socialgraph.Graph
	acts       []Activity
	byCreator  [][]int32
	byReceiver [][]int32
}

func newRowRef(g *socialgraph.Graph, rows []Activity) *rowRef {
	acts := make([]Activity, len(rows))
	copy(acts, rows)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At.Before(acts[j].At) })
	n := g.NumUsers()
	r := &rowRef{
		graph:      g,
		acts:       acts,
		byCreator:  make([][]int32, n),
		byReceiver: make([][]int32, n),
	}
	for i, a := range acts {
		if int(a.Creator) < n && a.Creator >= 0 {
			r.byCreator[a.Creator] = append(r.byCreator[a.Creator], int32(i))
		}
		if int(a.Receiver) < n && a.Receiver >= 0 {
			r.byReceiver[a.Receiver] = append(r.byReceiver[a.Receiver], int32(i))
		}
	}
	return r
}

func (r *rowRef) gather(idx [][]int32, u socialgraph.UserID) []Activity {
	if u < 0 || int(u) >= len(idx) {
		return nil
	}
	out := make([]Activity, len(idx[u]))
	for i, k := range idx[u] {
		out[i] = r.acts[k]
	}
	return out
}

func (r *rowRef) createdBy(u socialgraph.UserID) []Activity  { return r.gather(r.byCreator, u) }
func (r *rowRef) receivedBy(u socialgraph.UserID) []Activity { return r.gather(r.byReceiver, u) }

func (r *rowRef) interactionCounts(u socialgraph.UserID) map[socialgraph.UserID]int {
	counts := make(map[socialgraph.UserID]int)
	isNeighbor := make(map[socialgraph.UserID]bool)
	for _, f := range r.graph.Neighbors(u) {
		isNeighbor[f] = true
	}
	for _, a := range r.receivedBy(u) {
		if isNeighbor[a.Creator] {
			counts[a.Creator]++
		}
	}
	return counts
}

func (r *rowRef) receivedByBetween(u socialgraph.UserID, from, to time.Time) []Activity {
	var out []Activity
	for _, a := range r.receivedBy(u) {
		if !a.At.Before(from) && a.At.Before(to) {
			out = append(out, a)
		}
	}
	return out
}

func (r *rowRef) interactionCountsBetween(u socialgraph.UserID, from, to time.Time) map[socialgraph.UserID]int {
	counts := make(map[socialgraph.UserID]int)
	isNeighbor := make(map[socialgraph.UserID]bool)
	for _, f := range r.graph.Neighbors(u) {
		isNeighbor[f] = true
	}
	for _, a := range r.receivedBy(u) {
		if a.At.Before(from) || !a.At.Before(to) {
			continue
		}
		if isNeighbor[a.Creator] {
			counts[a.Creator]++
		}
	}
	return counts
}

// rowsAt materializes the rows an index accessor points at, so the index
// views can be compared against the row-model reference.
func rowsAt(d *Dataset, idx []int32) []Activity {
	out := make([]Activity, len(idx))
	for i, k := range idx {
		out[i] = d.ActivityAt(int(k))
	}
	return out
}

func sameActivities(a, b []Activity) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Creator != b[i].Creator || a[i].Receiver != b[i].Receiver || !a[i].At.Equal(b[i].At) {
			return false
		}
	}
	return true
}

// countsByID keys positional per-neighbor counts by neighbor ID, dropping
// zeros — the shape the row-era reference reports.
func countsByID(neighbors []socialgraph.UserID, counts []int) map[socialgraph.UserID]int {
	m := make(map[socialgraph.UserID]int)
	for i, c := range counts {
		if c > 0 {
			m[neighbors[i]] = c
		}
	}
	return m
}

func sameCounts(a, b map[socialgraph.UserID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// betweenDataset: user 1 posts on user 0's wall at minutes 10, 20, 20, 30;
// user 2 (also a neighbor) at minute 20; user 3 is NOT a neighbor of 0.
func betweenDataset(t *testing.T) *Dataset {
	t.Helper()
	b := socialgraph.NewBuilder(socialgraph.Undirected, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	d := &Dataset{Name: "between", Graph: b.Build()}
	at := func(min int) time.Time { return Epoch.Add(time.Duration(min) * time.Minute) }
	d.SetActivities([]Activity{
		{Creator: 1, Receiver: 0, At: at(10)},
		{Creator: 1, Receiver: 0, At: at(20)},
		{Creator: 2, Receiver: 0, At: at(20)},
		{Creator: 1, Receiver: 0, At: at(20)},
		{Creator: 1, Receiver: 0, At: at(30)},
		{Creator: 3, Receiver: 0, At: at(25)}, // non-neighbor creator
		{Creator: 0, Receiver: 1, At: at(40)},
	})
	d.Reindex()
	return d
}

// TestReceivedByBetweenSemantics pins the half-open [from, to) contract of
// ReceivedIdxBetween, the one the row-era implementation had: from is
// inclusive, to exclusive, from == to and inverted ranges are empty,
// sub-second boundaries round up to the next whole second, and out-of-range
// users yield nil.
func TestReceivedByBetweenSemantics(t *testing.T) {
	d := betweenDataset(t)
	at := func(min int) time.Time { return Epoch.Add(time.Duration(min) * time.Minute) }

	got := rowsAt(d, d.ReceivedIdxBetween(0, at(10), at(30)))
	if len(got) != 5 {
		t.Fatalf("[10m,30m) = %d activities, want 5 (30m boundary excluded)", len(got))
	}
	if !got[0].At.Equal(at(10)) {
		t.Errorf("from must be inclusive: first at %v", got[0].At)
	}
	for _, a := range got {
		if !a.At.Before(at(30)) {
			t.Errorf("to must be exclusive: got activity at %v", a.At)
		}
	}
	// Timestamp order, ties preserved in insertion order.
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Error("results must stay in timestamp order")
		}
	}

	if got := d.ReceivedIdxBetween(0, at(20), at(20)); got != nil {
		t.Errorf("from == to must be empty, got %d", len(got))
	}
	if got := d.ReceivedIdxBetween(0, at(30), at(10)); got != nil {
		t.Errorf("inverted range must be empty, got %d", len(got))
	}
	// A sub-second from excludes the instant it truncates into: [19m59.5s, …)
	// must not include the 20m00s activities' predecessor at exactly 19m59s —
	// more precisely, an activity at whole second s is >= a fractional bound b
	// iff s >= ceil(b).
	if got := d.ReceivedIdxBetween(0, at(10).Add(500*time.Millisecond), at(30)); len(got) != 4 {
		t.Errorf("fractional from must exclude the truncated second: got %d, want 4", len(got))
	}
	if got := d.ReceivedIdxBetween(0, at(10), at(29).Add(999*time.Millisecond)); len(got) != 5 {
		t.Errorf("fractional to covers through its floor second: got %d, want 5", len(got))
	}

	if d.ReceivedIdxBetween(-1, at(0), at(100)) != nil || d.ReceivedIdxBetween(99, at(0), at(100)) != nil {
		t.Error("out-of-range users must yield nil")
	}
}

// TestInteractionCountsBetweenSemantics pins the same half-open contract for
// the count variant, plus the neighbor restriction, the alignment with the
// neighbor list and the empty result for out-of-range users.
func TestInteractionCountsBetweenSemantics(t *testing.T) {
	d := betweenDataset(t)
	at := func(min int) time.Time { return Epoch.Add(time.Duration(min) * time.Minute) }
	between := func(from, to time.Time) map[socialgraph.UserID]int {
		positional := d.InteractionCountsBetween(0, from, to)
		if len(positional) != len(d.Graph.Neighbors(0)) {
			t.Fatalf("counts %v not aligned with neighbors %v", positional, d.Graph.Neighbors(0))
		}
		return countsByID(d.Graph.Neighbors(0), positional)
	}

	counts := between(at(10), at(30))
	if counts[1] != 3 || counts[2] != 1 {
		t.Errorf("counts [10m,30m) = %v, want {1:3, 2:1} (the 30m post excluded)", counts)
	}
	if _, ok := counts[3]; ok {
		t.Error("non-neighbor creators must not be counted")
	}
	counts = between(at(20), at(30))
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts [20m,30m) = %v, want {1:2, 2:1} (30m excluded)", counts)
	}
	if got := between(at(20), at(20)); len(got) != 0 {
		t.Errorf("from == to must count nothing, got %v", got)
	}
	if got := d.InteractionCountsBetween(99, at(0), at(100)); len(got) != 0 {
		t.Errorf("out-of-range user must have no counts, got %v", got)
	}
}

// randomRows generates count random activities over n users with whole-second
// timestamps (the dataset resolution), including out-of-range user IDs and
// duplicate timestamps.
func randomRows(rng *rand.Rand, n, count int) []Activity {
	rows := make([]Activity, count)
	for i := range rows {
		id := func() socialgraph.UserID {
			switch rng.Intn(12) {
			case 0:
				return socialgraph.UserID(-1 - rng.Intn(3)) // negative
			case 1:
				return socialgraph.UserID(n + rng.Intn(3)) // past the graph
			default:
				return socialgraph.UserID(rng.Intn(n))
			}
		}
		rows[i] = Activity{
			Creator:  id(),
			Receiver: id(),
			// Coarse seconds force plenty of equal timestamps, exercising
			// sort stability.
			At: Epoch.Add(time.Duration(rng.Intn(600)) * 30 * time.Second),
		}
	}
	return rows
}

func randomGraph(rng *rand.Rand, n int) *socialgraph.Graph {
	kind := socialgraph.Undirected
	if rng.Intn(2) == 1 {
		kind = socialgraph.Directed
	}
	b := socialgraph.NewBuilder(kind, n)
	edges := rng.Intn(3 * n)
	for i := 0; i < edges; i++ {
		b.AddEdge(socialgraph.UserID(rng.Intn(n)), socialgraph.UserID(rng.Intn(n)))
	}
	return b.Build()
}

// TestQuickColumnarMatchesRowAccessors is the row/column equivalence
// property: on randomized datasets — both graph kinds, users with no
// activities, unsorted input, out-of-range IDs, tied timestamps — every
// index accessor points at exactly the rows the row-model reference returns.
func TestQuickColumnarMatchesRowAccessors(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := randomGraph(rng, n)
		rows := randomRows(rng, n, rng.Intn(120))

		d := &Dataset{Name: "quick", Graph: g}
		d.SetActivities(rows)
		d.Reindex()
		ref := newRowRef(g, rows)

		if !sameActivities(d.Rows(), ref.acts) {
			t.Logf("seed %d: global order differs", seed)
			return false
		}
		from := Epoch.Add(time.Duration(rng.Intn(400)) * 30 * time.Second)
		to := from.Add(time.Duration(rng.Intn(300)) * 30 * time.Second)
		var s CountScratch
		for u := -2; u < n+2; u++ {
			uid := socialgraph.UserID(u)
			if !sameActivities(rowsAt(d, d.CreatedIdx(uid)), ref.createdBy(uid)) {
				t.Logf("seed %d: CreatedIdx(%d) differs", seed, u)
				return false
			}
			if !sameActivities(rowsAt(d, d.ReceivedIdx(uid)), ref.receivedBy(uid)) {
				t.Logf("seed %d: ReceivedIdx(%d) differs", seed, u)
				return false
			}
			if d.CreatedCount(uid) != len(ref.createdBy(uid)) {
				t.Logf("seed %d: CreatedCount(%d) differs", seed, u)
				return false
			}
			if !sameActivities(rowsAt(d, d.ReceivedIdxBetween(uid, from, to)), ref.receivedByBetween(uid, from, to)) {
				t.Logf("seed %d: ReceivedIdxBetween(%d) differs", seed, u)
				return false
			}
			neighbors := g.Neighbors(uid)
			if !sameCounts(countsByID(neighbors, d.InteractionCountsBetween(uid, from, to)), ref.interactionCountsBetween(uid, from, to)) {
				t.Logf("seed %d: InteractionCountsBetween(%d) differs", seed, u)
				return false
			}
			// The scratch-based positional counts must agree with the
			// reference map (zeros included).
			positional := d.CandidateInteractionCounts(uid, neighbors, &s)
			refCounts := ref.interactionCounts(uid)
			for i, f := range neighbors {
				if positional[i] != refCounts[f] {
					t.Logf("seed %d: CandidateInteractionCounts(%d)[%d] = %d, want %d",
						seed, u, i, positional[i], refCounts[f])
					return false
				}
			}
			// The column accessors must agree with the materialized rows, and
			// the counts with the index lengths.
			refRecv := ref.receivedBy(uid)
			for i, k := range d.ReceivedIdx(uid) {
				a := d.ActivityAt(int(k))
				if a.Receiver != d.ReceiverAt(int(k)) || a.Creator != d.CreatorAt(int(k)) ||
					a.At.Unix() != d.UnixAt(int(k)) || a.MinuteOfDay() != d.MinuteOfDayAt(int(k)) ||
					a.Creator != refRecv[i].Creator {
					t.Logf("seed %d: column accessors disagree at ReceivedIdx(%d)[%d]", seed, u, i)
					return false
				}
			}
			if d.ReceivedCount(uid) != len(refRecv) {
				t.Logf("seed %d: ReceivedCount(%d) differs", seed, u)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReindexHandMutatedMatchesRowPath pins the counting-sort CSR build
// against the append-based index build it replaced: a dataset mutated by hand
// — unsorted appends, duplicate timestamps, activities of dropped/foreign
// users — reindexes to exactly the state the old path produced.
func TestReindexHandMutatedMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 8)
	d := &Dataset{Name: "mutated", Graph: g}
	d.SetActivities(randomRows(rng, 8, 40))
	d.Reindex()

	// Hand-mutate: append more unsorted rows (including out-of-range IDs and
	// timestamp ties with existing rows) on top of the already-indexed state.
	extra := randomRows(rng, 8, 25)
	for _, a := range extra {
		d.AppendActivity(a)
	}
	d.Reindex()

	ref := newRowRef(g, append(d.Rows()[:0:0], d.Rows()...)) // reference over the same multiset
	// Rebuild the reference from the pre-sort insertion order instead: the
	// dataset's Rows() are already sorted, and stable-sorting a sorted slice
	// is the identity, so both orders must agree.
	if !sameActivities(d.Rows(), ref.acts) {
		t.Fatal("hand-mutated reindex produced a different global order")
	}
	for u := -1; u < 9; u++ {
		uid := socialgraph.UserID(u)
		if !sameActivities(rowsAt(d, d.CreatedIdx(uid)), ref.createdBy(uid)) {
			t.Fatalf("CreatedIdx(%d) differs after hand mutation", u)
		}
		if !sameActivities(rowsAt(d, d.ReceivedIdx(uid)), ref.receivedBy(uid)) {
			t.Fatalf("ReceivedIdx(%d) differs after hand mutation", u)
		}
	}
	// The offsets must tile the indexed activities exactly.
	totalCreated := 0
	for u := 0; u < g.NumUsers(); u++ {
		totalCreated += d.CreatedCount(socialgraph.UserID(u))
	}
	inRange := 0
	for i := 0; i < d.NumActivities(); i++ {
		if c := d.CreatorAt(i); c >= 0 && int(c) < g.NumUsers() {
			inRange++
		}
	}
	if totalCreated != inRange {
		t.Fatalf("CSR covers %d created activities, want %d", totalCreated, inRange)
	}
}

// TestReindexSkipsSortedInput verifies the synthesizer contract: columns
// already in timestamp order survive Reindex byte-for-byte (the sortedness
// fast path), and a second Reindex is idempotent.
func TestReindexSkipsSortedInput(t *testing.T) {
	d := MustSynthesize(DefaultFacebookConfig(80))
	before := d.Rows()
	d.Reindex()
	if !sameActivities(before, d.Rows()) {
		t.Fatal("Reindex changed already-sorted synthetic columns")
	}
}
