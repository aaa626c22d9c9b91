package dht

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

func mustRing(t testing.TB, n int, cfg Config) *Ring {
	t.Helper()
	r, err := BuildRing(n, cfg)
	if err != nil {
		t.Fatalf("BuildRing(%d, %+v): %v", n, cfg, err)
	}
	return r
}

func TestBuildRingValidation(t *testing.T) {
	if _, err := BuildRing(0, Config{}); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := BuildRing(10, Config{Bits: 4}); err == nil {
		t.Error("4-bit ring accepted")
	}
	if _, err := BuildRing(10, Config{Bits: 65}); err == nil {
		t.Error("65-bit ring accepted")
	}
	for _, bits := range []int{8, 32, 64} {
		if _, err := BuildRing(10, Config{Bits: bits}); err != nil {
			t.Errorf("bits=%d rejected: %v", bits, err)
		}
	}
}

// TestRingDeterministic pins the bit-determinism guarantee: two builds of
// the same configuration agree on every position, id and finger, and
// lookups running concurrently agree with serial ones.
func TestRingDeterministic(t *testing.T) {
	a := mustRing(t, 500, Config{})
	b := mustRing(t, 500, Config{})
	if !reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.users, b.users) {
		t.Fatal("two builds of the same ring differ")
	}
	if !reflect.DeepEqual(a.fingers, b.fingers) {
		t.Fatal("finger tables differ between builds")
	}

	// Serial reference answers.
	type ans struct {
		succ socialgraph.UserID
		hops int
	}
	ref := make([]ans, 200)
	for i := range ref {
		key := a.Key(socialgraph.UserID(i))
		ref[i] = ans{a.users[a.successorPos(key)], a.HopCount(socialgraph.UserID(i+17), key)}
	}
	// The same lookups from 8 goroutines must reproduce them exactly.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ref {
				key := a.Key(socialgraph.UserID(i))
				if got := (ans{a.users[a.successorPos(key)], a.HopCount(socialgraph.UserID(i+17), key)}); got != ref[i] {
					errs <- "concurrent lookup diverged from serial"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSuccessorsMatchBruteForce checks SuccessorsOf's binary-searched start
// against a direct scan of the sorted ring: the first k nodes at or after the
// owner's key in clockwise order, the owner skipped, k clamped to n-1.
func TestSuccessorsMatchBruteForce(t *testing.T) {
	const n = 64
	r := mustRing(t, n, Config{Bits: 16}) // small id space: exercises wrap + collisions
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		owner := socialgraph.UserID(rng.Intn(n))
		k := 1 + rng.Intn(8)
		if trial%10 == 0 {
			k = n - 1 + rng.Intn(3) // at and past the clamp
		}
		got := r.SuccessorsOf(owner, k)
		// Brute force: walk positions from the first id >= key.
		key := r.Key(owner)
		start := 0
		for start < len(r.ids) && r.ids[start] < key {
			start++
		}
		var want []socialgraph.UserID
		for i := 0; i < n && len(want) < k; i++ {
			if u := r.users[(start+i)%n]; u != owner {
				want = append(want, u)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SuccessorsOf(%d, %d) = %v, want %v", owner, k, got, want)
		}
		if k >= n && len(got) != n-1 {
			t.Fatalf("SuccessorsOf(%d, %d) has %d entries, want the clamp %d", owner, k, len(got), n-1)
		}
	}
}

func TestSuccessorsOfExcludesOwner(t *testing.T) {
	r := mustRing(t, 40, Config{Bits: 8}) // dense ring: owner often inside the window
	for u := socialgraph.UserID(0); u < 40; u++ {
		cands := r.SuccessorsOf(u, 39)
		if len(cands) != 39 {
			t.Fatalf("owner %d: %d candidates, want 39", u, len(cands))
		}
		seen := map[socialgraph.UserID]bool{}
		for _, c := range cands {
			if c == u {
				t.Fatalf("owner %d appears in its own successor list", u)
			}
			if seen[c] {
				t.Fatalf("duplicate candidate %d for owner %d", c, u)
			}
			seen[c] = true
		}
	}
}

// TestRouteReachesSuccessor: every lookup ends at the key's successor, its
// hop count matches HopCount, and greedy finger routing stays within the
// O(log n)-style bound (each hop at least halves the remaining distance, so
// hops can never exceed the ring size and should sit near log2 n).
func TestRouteReachesSuccessor(t *testing.T) {
	r := mustRing(t, 300, Config{})
	totalHops := 0
	lookups := 0
	for from := socialgraph.UserID(0); from < 300; from += 7 {
		for owner := socialgraph.UserID(0); owner < 300; owner += 11 {
			key := r.Key(owner)
			hops, at := r.walk(from, key)
			if want := r.successorPos(key); at != want {
				t.Fatalf("lookup from %d ends at position %d, want successor %d", from, at, want)
			}
			if got := r.HopCount(from, key); got != hops {
				t.Fatalf("HopCount %d disagrees with the walk's %d hops", got, hops)
			}
			if hops >= r.NumNodes() {
				t.Fatalf("hop count %d not below ring size", hops)
			}
			if root := r.users[at]; r.HopCount(root, key) != 0 {
				t.Fatalf("the key's own successor %d takes %d hops", root, r.HopCount(root, key))
			}
			totalHops += hops
			lookups++
		}
	}
	if mean := float64(totalHops) / float64(lookups); mean > 20 {
		t.Errorf("mean hop count %.1f implausibly high for 300 nodes", mean)
	}
}

func TestStepsAndPositions(t *testing.T) {
	r := mustRing(t, 10, Config{})
	for u := socialgraph.UserID(0); u < 10; u++ {
		if r.users[r.pos[u]] != u {
			t.Fatalf("users[pos[%d]] != %d", u, u)
		}
	}
	if r.steps(3, 3) != 0 || r.steps(9, 0) != 1 || r.steps(0, 9) != 9 {
		t.Error("steps arithmetic wrong")
	}
}

// --- placements -----------------------------------------------------------

// testInput builds a replica.Input over n users with deterministic two-hour
// schedules staggered around the day, plus a small ring-independent graph.
func testInput(t *testing.T, n int, owner socialgraph.UserID, mode replica.Mode, budget int) (replica.Input, *socialgraph.Graph) {
	t.Helper()
	schedules := make([]interval.Set, n)
	for u := 0; u < n; u++ {
		start := (u * 97) % interval.DayMinutes
		schedules[u] = interval.NewSet(interval.Interval{Start: start, End: start + 120})
	}
	b := socialgraph.NewBuilder(socialgraph.Undirected, n)
	for u := 0; u < n; u++ {
		b.AddEdge(socialgraph.UserID(u), socialgraph.UserID((u+1)%n))
		b.AddEdge(socialgraph.UserID(u), socialgraph.UserID((u+5)%n))
	}
	g := b.Build()
	return replica.Input{
		Owner:      owner,
		Candidates: g.Neighbors(owner),
		Bitmaps:    interval.BitmapsFromSets(schedules),
		Mode:       mode,
		Budget:     budget,
	}, g
}

// TestRandomDHTPrefixConsistentAcrossBudgets: a larger budget only extends
// RandomDHT's successor scan, so the degree-r group is stable whether the
// sweep bound is r or larger. (SocialDHT ranks a budget-sized window and
// does not promise this across budgets — only within one selection, which
// is what the engine's prefix sweep uses.)
func TestRandomDHTPrefixConsistentAcrossBudgets(t *testing.T) {
	r := mustRing(t, 120, Config{})
	in, _ := testInput(t, 120, 7, replica.ConRep, 0)
	p := &Placement{Ring: r}
	for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
		in := in
		in.Mode = mode
		var prev []socialgraph.UserID
		for budget := 1; budget <= 8; budget++ {
			in.Budget = budget
			got := p.Select(in, nil)
			if len(got) > budget {
				t.Fatalf("budget %d: %d replicas", budget, len(got))
			}
			if !isPrefix(prev, got) {
				t.Fatalf("%v: budget %d selection %v is not an extension of %v", mode, budget, got, prev)
			}
			prev = got
		}
	}
}

func isPrefix(prev, got []socialgraph.UserID) bool {
	if len(prev) > len(got) {
		return false
	}
	for i := range prev {
		if prev[i] != got[i] {
			return false
		}
	}
	return true
}

func TestPlacementExcludesOwnerAndDuplicates(t *testing.T) {
	r := mustRing(t, 60, Config{})
	in, g := testInput(t, 60, 3, replica.UnconRep, 10)
	for _, p := range []replica.Policy{&Placement{Ring: r}, &Placement{Ring: r, Social: true, Graph: g}} {
		got := p.Select(in, nil)
		if len(got) != 10 {
			t.Fatalf("%s: %d replicas, want 10", p.Name(), len(got))
		}
		seen := map[socialgraph.UserID]bool{}
		for _, c := range got {
			if c == in.Owner {
				t.Fatalf("%s placed a replica on the owner", p.Name())
			}
			if seen[c] {
				t.Fatalf("%s chose %d twice", p.Name(), c)
			}
			seen[c] = true
		}
	}
}

// TestPlacementConRepConnectivity: in ConRep mode every chosen replica must
// overlap the owner or an earlier replica, exactly as for friend policies.
func TestPlacementConRepConnectivity(t *testing.T) {
	r := mustRing(t, 120, Config{})
	in, g := testInput(t, 120, 11, replica.ConRep, 6)
	for _, p := range []replica.Policy{&Placement{Ring: r}, &Placement{Ring: r, Social: true, Graph: g}} {
		got := p.Select(in, nil)
		if len(got) == 0 {
			t.Fatalf("%s chose nothing under ConRep", p.Name())
		}
		for i, c := range got {
			if !in.Connected(c, got[:i]) {
				t.Errorf("%s replica %d (%d) not time-connected to the prior group", p.Name(), i, c)
			}
		}
	}
}

// TestRandomDHTFollowsRingOrder: without re-ranking and without the ConRep
// filter, the selection is exactly the successor-list prefix.
func TestRandomDHTFollowsRingOrder(t *testing.T) {
	r := mustRing(t, 80, Config{})
	in, _ := testInput(t, 80, 5, replica.UnconRep, 4)
	got := (&Placement{Ring: r}).Select(in, nil)
	want := r.SuccessorsOf(5, 4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RandomDHT selection %v != successor prefix %v", got, want)
	}
}

// TestSocialDHTPrefersFriends: with schedules held identical, a direct
// friend inside the candidate window must outrank every stranger.
func TestSocialDHTPrefersFriends(t *testing.T) {
	const n = 40
	schedules := make([]interval.Set, n)
	for u := 0; u < n; u++ {
		schedules[u] = interval.NewSet(interval.Interval{Start: 60, End: 180})
	}
	r := mustRing(t, n, Config{})
	owner := socialgraph.UserID(0)
	cands := r.SuccessorsOf(owner, window(3))
	b := socialgraph.NewBuilder(socialgraph.Undirected, n)
	friend := cands[len(cands)-1] // the worst-placed candidate by ring order
	b.AddEdge(owner, friend)
	g := b.Build()
	in := replica.Input{
		Owner:   owner,
		Bitmaps: interval.BitmapsFromSets(schedules),
		Mode:    replica.UnconRep,
		Budget:  3,
	}
	got := (&Placement{Ring: r, Social: true, Graph: g}).Select(in, nil)
	if len(got) == 0 || got[0] != friend {
		t.Errorf("SocialDHT ranked %v first, want friend %d", got, friend)
	}
	// And the ranking must be stable: repeated selections agree exactly.
	again := (&Placement{Ring: r, Social: true, Graph: g}).Select(in, nil)
	if !reflect.DeepEqual(got, again) {
		t.Errorf("SocialDHT selection not deterministic: %v vs %v", got, again)
	}
}

// --- architectures --------------------------------------------------------

func TestNewArchitecture(t *testing.T) {
	r := mustRing(t, 20, Config{})
	g := socialgraph.NewBuilder(socialgraph.Undirected, 20).Build()
	for _, name := range ArchNames() {
		a, err := NewArchitecture(name, r, g, nil)
		if err != nil {
			t.Fatalf("NewArchitecture(%q): %v", name, err)
		}
		if len(a.Policies()) == 0 {
			t.Errorf("architecture %q has no policies", name)
		}
		// A DHT architecture is its one placement, named by the
		// architecture's constant.
		if name != ArchFriendReplica {
			if ps := a.Policies(); len(ps) != 1 {
				t.Errorf("architecture %q evaluates %d policies, want 1", name, len(ps))
			} else if ps[0].Name() != name {
				t.Errorf("architecture %q evaluates policy %q", name, ps[0].Name())
			}
		}
	}
	if _, err := NewArchitecture("", r, g, nil); err == nil {
		t.Error("empty architecture name accepted")
	}
	if fr, _ := NewArchitecture(ArchFriendReplica, nil, nil, nil); len(fr.Policies()) != 3 {
		t.Errorf("FriendReplica default policies = %d, want 3", len(fr.Policies()))
	}
	if _, err := NewArchitecture(ArchRandomDHT, nil, nil, nil); err == nil {
		t.Error("RandomDHT without a ring accepted")
	}
	if _, err := NewArchitecture(ArchSocialDHT, r, nil, nil); err == nil {
		t.Error("SocialDHT without a graph accepted")
	}
	small := socialgraph.NewBuilder(socialgraph.Undirected, 19).Build()
	if _, err := NewArchitecture(ArchSocialDHT, r, small, nil); err == nil {
		t.Error("SocialDHT accepted a ring and a graph over different user counts")
	}
	if _, err := NewArchitecture("Gossip", r, g, nil); err == nil {
		t.Error("unknown architecture accepted")
	}
}
