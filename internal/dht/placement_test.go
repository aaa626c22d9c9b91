package dht

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dosn/internal/interval"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// jaccard is the reference the marked-neighbor kernel replaced:
// |a ∩ b| / |a ∪ b| by a two-pointer merge of two sorted ID slices.
func jaccard(a, b []socialgraph.UserID) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	common := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - common
	return float64(common) / float64(union)
}

// proximityOracle is the pre-kernel definition of social proximity.
func proximityOracle(g *socialgraph.Graph, owner, c socialgraph.UserID) float64 {
	if g.HasEdge(owner, c) {
		return 1
	}
	return jaccard(g.Neighbors(owner), g.Neighbors(c))
}

// randomGraph draws a graph whose first few users stay isolated (empty
// neighbor lists) and whose rest are dense enough that, in the directed
// kind, an owner regularly follows a candidate who does not follow back —
// the owner sits in the candidate's list without a direct edge.
func randomGraph(rng *rand.Rand, kind socialgraph.Kind, n int) *socialgraph.Graph {
	const isolated = 3
	b := socialgraph.NewBuilder(kind, n)
	for e := rng.Intn(6 * n); e > 0; e-- {
		u := socialgraph.UserID(isolated + rng.Intn(n-isolated))
		v := socialgraph.UserID(isolated + rng.Intn(n-isolated))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestQuickProximityMatchesOracle: with no schedules the score is the
// proximity term alone, and it must equal the HasEdge/jaccard definition
// exactly — same integers, same quotient — for every (owner, candidate)
// pair. Two owners go through one scratch back to back, and the mark bitset
// must be all clear after each.
func TestQuickProximityMatchesOracle(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := socialgraph.Undirected
		if directed {
			kind = socialgraph.Directed
		}
		n := 8 + rng.Intn(120)
		g := randomGraph(rng, kind, n)
		p := &Placement{Ring: mustRing(t, n, Config{}), Social: true, Graph: g}
		var sc selectScratch
		for _, owner := range []socialgraph.UserID{0, socialgraph.UserID(rng.Intn(n)), socialgraph.UserID(rng.Intn(n))} {
			cands := make([]socialgraph.UserID, 0, n-1)
			for c := 0; c < n; c++ {
				if socialgraph.UserID(c) != owner {
					cands = append(cands, socialgraph.UserID(c))
				}
			}
			scores := p.score(replica.Input{Owner: owner}, cands, &sc)
			for i, c := range cands {
				if want := proximityOracle(g, owner, c); scores[i] != want {
					t.Logf("%v n=%d owner=%d cand=%d: proximity %v, oracle %v", kind, n, owner, c, scores[i], want)
					return false
				}
			}
			for w, word := range sc.marks {
				if word != 0 {
					t.Logf("owner %d left mark word %d = %#x", owner, w, word)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortByScoreDescMatchesSliceStable: the insertion sort must give
// the one stable descending order, ties (drawn from a four-value alphabet)
// included.
func TestQuickSortByScoreDescMatchesSliceStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		scores := make([]float64, n)
		cands := make([]socialgraph.UserID, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(4)) / 2
			if rng.Intn(3) == 0 {
				scores[i] = rng.Float64() * 2
			}
			cands[i] = socialgraph.UserID(i)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		wantCands := make([]socialgraph.UserID, n)
		wantScores := make([]float64, n)
		for i, j := range idx {
			wantCands[i], wantScores[i] = cands[j], scores[j]
		}
		sortByScoreDesc(scores, cands)
		return reflect.DeepEqual(cands, wantCands) && reflect.DeepEqual(scores, wantScores)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSocialDHTWithoutGraphRanksByOverlap: a Social placement with no graph
// scores proximity 0 and so ranks by schedule overlap alone.
func TestSocialDHTWithoutGraphRanksByOverlap(t *testing.T) {
	r := mustRing(t, 60, Config{})
	in, _ := testInput(t, 60, 3, replica.UnconRep, 5)
	got := (&Placement{Ring: r, Social: true}).Select(in, nil)
	cands := r.SuccessorsOf(in.Owner, 5*DefaultWindow)
	sort.SliceStable(cands, func(a, b int) bool {
		return scheduleOverlap(in, in.Owner, cands[a]) > scheduleOverlap(in, in.Owner, cands[b])
	})
	if !reflect.DeepEqual(got, cands[:5]) {
		t.Errorf("graphless SocialDHT chose %v, want the overlap ranking %v", got, cands[:5])
	}
}

// TestPlacementSelectConcurrent shares one *Placement between eight
// goroutines (as sweep workers do) and checks every selection against the
// serial one; run under -race it also pins the scratch pool's isolation.
func TestPlacementSelectConcurrent(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, socialgraph.Undirected, n)
	schedules := make([]interval.Set, n)
	for u := range schedules {
		schedules[u] = interval.Window(rng.Intn(interval.DayMinutes), 60+rng.Intn(300))
	}
	p := &Placement{Ring: mustRing(t, n, Config{}), Social: true, Graph: g}
	in := replica.Input{Bitmaps: interval.BitmapsFromSets(schedules), Mode: replica.ConRep, Budget: 6}
	want := make([][]socialgraph.UserID, n)
	for u := range want {
		in.Owner = socialgraph.UserID(u)
		want[u] = p.Select(in, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := in
			for i := 0; i < n; i++ {
				u := (i*7 + w*37) % n
				in.Owner = socialgraph.UserID(u)
				if got := p.Select(in, nil); !reflect.DeepEqual(got, want[u]) {
					t.Errorf("goroutine %d owner %d: %v, serial %v", w, u, got, want[u])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQuickScratchWindowMatchesSuccessorsOf runs a sequence of owners whose
// budgets shrink and grow through one Placement, so its pooled window and
// score buffers are reused at every size. The walk into a reused buffer
// must equal SuccessorsOf, and each selection must equal the one ranked on
// fresh memory: SuccessorsOf's window, scores from a fresh scratch, a
// stable descending sort and the greedy ConRep scan.
func TestQuickScratchWindowMatchesSuccessorsOf(t *testing.T) {
	f := func(seed int64, social bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		g := randomGraph(rng, socialgraph.Undirected, max(n, 4))
		schedules := make([]interval.Set, n)
		for u := range schedules {
			schedules[u] = interval.Window(rng.Intn(interval.DayMinutes), rng.Intn(400))
		}
		ring := mustRing(t, n, Config{Bits: 8 + rng.Intn(57)})
		p := &Placement{Ring: ring, Social: social, Graph: g}
		var buf []socialgraph.UserID
		for step := 0; step < 12; step++ {
			mode := replica.Mode(1 + rng.Intn(2))
			in := replica.Input{Owner: socialgraph.UserID(rng.Intn(n)), Bitmaps: interval.BitmapsFromSets(schedules), Mode: mode, Budget: rng.Intn(n + 2)}
			want := ring.SuccessorsOf(in.Owner, window(in.Budget))
			buf = ring.appendSuccessors(buf[:0], in.Owner, window(in.Budget))
			if !slices.Equal(buf, want) {
				t.Logf("n=%d owner %d k=%d: reused walk %v, SuccessorsOf %v", n, in.Owner, window(in.Budget), buf, want)
				return false
			}
			if social {
				scores := p.score(in, want, new(selectScratch))
				idx := make([]int, len(want))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
				ranked := make([]socialgraph.UserID, len(want))
				for i, j := range idx {
					ranked[i] = want[j]
				}
				want = ranked
			}
			var chosen []socialgraph.UserID
			for _, c := range want {
				if len(chosen) < in.Budget && (mode == replica.UnconRep || in.Connected(c, chosen)) {
					chosen = append(chosen, c)
				}
			}
			if got := p.Select(in, nil); !slices.Equal(got, chosen) {
				t.Logf("n=%d owner %d budget %d %v social=%v: pooled Select %v, fresh ranking %v", n, in.Owner, in.Budget, mode, social, got, chosen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
