package osn

import (
	"errors"
	"reflect"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/socialgraph"
)

// threeNodeConfig: owner 0 online [0,120); replica 1 online [60,180);
// replica 2 online [150,270). Creator 3 online [30,90).
func threeNodeConfig(posts []PostEvent) Config {
	return Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{
			0: interval.Window(0, 120),
			1: interval.Window(60, 120),
			2: interval.Window(150, 120),
			3: interval.Window(30, 60),
		}),
		Assignments: map[NodeID][]NodeID{0: {1, 2}},
		Days:        3,
		Posts:       posts,
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Days: 1}); !errors.Is(err, ErrNoSchedules) {
		t.Errorf("err = %v, want ErrNoSchedules", err)
	}
	if _, err := NewNetwork(Config{Schedules: interval.BitmapsFromSets([]interval.Set{interval.FullDay()})}); !errors.Is(err, ErrBadHorizon) {
		t.Errorf("err = %v, want ErrBadHorizon", err)
	}
	_, err := NewNetwork(Config{
		Schedules:   interval.BitmapsFromSets([]interval.Set{interval.FullDay()}),
		Assignments: map[NodeID][]NodeID{5: nil},
		Days:        1,
	})
	if !errors.Is(err, ErrBadID) {
		t.Errorf("err = %v, want ErrBadID", err)
	}
	_, err = NewNetwork(Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{interval.FullDay()}),
		Days:      1,
		Posts:     []PostEvent{{Creator: 9, Wall: 0}},
	})
	if !errors.Is(err, ErrBadID) {
		t.Errorf("post err = %v, want ErrBadID", err)
	}
}

func TestPostLandsImmediatelyWhenGroupOnline(t *testing.T) {
	// Creator 3 posts at minute 40: owner 0 (online [0,120)) is reachable.
	net, err := NewNetwork(threeNodeConfig([]PostEvent{
		{At: 40, Creator: 3, Wall: 0, Body: "hi"},
	}))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.Posts != 1 || res.Landed != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.ImmediateFraction != 1 {
		t.Errorf("ImmediateFraction = %v, want 1", res.ImmediateFraction)
	}
}

func TestDeliveryConvergesAcrossChain(t *testing.T) {
	net, err := NewNetwork(threeNodeConfig([]PostEvent{
		{At: 40, Creator: 3, Wall: 0, Body: "hi"},
	}))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.DeliveredAll != 1 {
		t.Fatalf("post did not reach the full group: %+v", res)
	}
	// Every group member's wall holds the post.
	for _, id := range []NodeID{0, 1, 2} {
		ps, err := net.Store(id).Posts(0)
		if err != nil || len(ps) != 1 || ps[0].Body != "hi" {
			t.Errorf("node %d wall = %v (%v)", id, ps, err)
		}
	}
	// The creator does not host the wall.
	if net.Store(3).Hosts(0) {
		t.Error("creator must not host the wall")
	}
}

func TestImmediateFractionReflectsGroupPresence(t *testing.T) {
	// Post at minute 40 → owner online (immediate). Post at minute 1000 →
	// nobody online (not immediate; creator 3 is offline too, so it goes
	// out next session).
	net, err := NewNetwork(threeNodeConfig([]PostEvent{
		{At: 40, Creator: 3, Wall: 0},
		{At: 1000, Creator: 3, Wall: 0},
	}))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.ImmediateFraction != 0.5 {
		t.Errorf("ImmediateFraction = %v, want 0.5", res.ImmediateFraction)
	}
	if res.DeliveredAll != 2 {
		t.Errorf("both posts should deliver eventually: %+v", res)
	}
}

func TestOwnerOnlyWallDegreeZero(t *testing.T) {
	cfg := Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{
			0: interval.Window(0, 60),
			1: interval.Window(30, 60),
		}),
		Days:  2,
		Posts: []PostEvent{{At: 40, Creator: 1, Wall: 0, Body: "solo"}},
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.DeliveredAll != 1 {
		t.Fatalf("degree-0 delivery failed: %+v", res)
	}
	ps, err := net.Store(0).Posts(0)
	if err != nil || len(ps) != 1 {
		t.Errorf("owner wall = %v (%v)", ps, err)
	}
}

func TestOwnerPostsOnOwnWall(t *testing.T) {
	cfg := threeNodeConfig([]PostEvent{{At: 10, Creator: 0, Wall: 0, Body: "self"}})
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.Landed != 1 || res.DeliveredAll != 1 {
		t.Fatalf("self post: %+v", res)
	}
}

func TestMeasuredDelayBoundedByAnalytic(t *testing.T) {
	// The analytic update-propagation delay is a worst-case bound; the
	// measured per-post maximum must stay below it (plus the 1-minute
	// propagation-round latency per hop).
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 120),
		1: interval.Window(60, 120),
		2: interval.Window(150, 120),
		3: interval.Window(30, 60),
	})
	replicas := []socialgraph.UserID{1, 2}
	analytic := metrics.UpdatePropagationDelay(0, replicas, schedules)

	var posts []PostEvent
	for m := int64(0); m < 1440; m += 97 { // posts across the whole day
		posts = append(posts, PostEvent{At: m, Creator: 3, Wall: 0})
	}
	net, err := NewNetwork(Config{
		Schedules:   schedules,
		Assignments: map[NodeID][]NodeID{0: {1, 2}},
		Days:        5,
		Posts:       posts,
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.DeliveredAll == 0 {
		t.Fatal("no post fully delivered")
	}
	slack := 0.5                                 // hours; covers the per-hop propagation rounds
	maxMeasured := res.PostMaxActualHours.Mean() // mean of per-post maxima
	if maxMeasured > analytic.Hours+slack {
		t.Errorf("measured max delay %.2fh exceeds analytic bound %.2fh",
			maxMeasured, analytic.Hours)
	}
	if res.PairObservedHours.Mean() > res.PairActualHours.Mean()+1e-9 {
		t.Errorf("observed delay %.2fh must not exceed actual %.2fh",
			res.PairObservedHours.Mean(), res.PairActualHours.Mean())
	}
}

func TestTotalLossPreventsDelivery(t *testing.T) {
	cfg := threeNodeConfig([]PostEvent{{At: 40, Creator: 3, Wall: 0}})
	cfg.LossRate = 1
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.Landed != 0 {
		t.Errorf("total loss should strand the post: %+v", res)
	}
	if res.LostContacts == 0 {
		t.Error("loss injection should be counted")
	}
}

func TestPartialLossStillConverges(t *testing.T) {
	cfg := threeNodeConfig([]PostEvent{{At: 40, Creator: 3, Wall: 0}})
	cfg.LossRate = 0.5
	cfg.Days = 30 // enough retries across sessions
	cfg.Seed = 4
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.DeliveredAll != 1 {
		t.Errorf("anti-entropy should survive 50%% contact loss: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *Result {
		cfg := threeNodeConfig([]PostEvent{
			{At: 40, Creator: 3, Wall: 0},
			{At: 700, Creator: 3, Wall: 0},
		})
		cfg.LossRate = 0.3
		cfg.Seed = 11
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		return net.Run()
	}
	a, b := mk(), mk()
	if a.Exchanges != b.Exchanges || a.PostsTransferred != b.PostsTransferred ||
		a.DeliveredAll != b.DeliveredAll || a.LostContacts != b.LostContacts {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestGroupAccessor(t *testing.T) {
	net, err := NewNetwork(threeNodeConfig(nil))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	g := net.Group(0)
	if len(g) != 3 || g[0] != 0 || g[1] != 1 || g[2] != 2 {
		t.Errorf("Group = %v", g)
	}
	g[0] = 99
	if net.Group(0)[0] != 0 {
		t.Error("Group must return a copy")
	}
	if net.Store(42) != nil {
		t.Error("unknown node store should be nil")
	}
}

func TestSameWallMultipleCreatorsSameMinute(t *testing.T) {
	cfg := threeNodeConfig([]PostEvent{
		{At: 70, Creator: 3, Wall: 0, Body: "a"},
		{At: 70, Creator: 1, Wall: 0, Body: "b"}, // replica 1 posts too
	})
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.DeliveredAll != 2 {
		t.Fatalf("both same-minute posts must deliver: %+v", res)
	}
	ps, _ := net.Store(0).Posts(0)
	if len(ps) != 2 {
		t.Errorf("owner wall = %v", ps)
	}
}

func TestReadAvailability(t *testing.T) {
	cfg := threeNodeConfig(nil)
	cfg.Reads = []ReadEvent{
		{At: 40, Reader: 3, Wall: 0},   // owner online → served
		{At: 170, Reader: 3, Wall: 0},  // replica 2 online → served
		{At: 1000, Reader: 3, Wall: 0}, // nobody online → miss
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	if res.ReadsTotal != 3 || res.ReadsServed != 2 {
		t.Errorf("reads = %d/%d, want 2/3", res.ReadsServed, res.ReadsTotal)
	}
}

func TestReadValidation(t *testing.T) {
	cfg := threeNodeConfig(nil)
	cfg.Reads = []ReadEvent{{At: 1, Reader: 99, Wall: 0}}
	if _, err := NewNetwork(cfg); !errors.Is(err, ErrBadID) {
		t.Errorf("err = %v, want ErrBadID", err)
	}
}

func TestReadOnUnassignedWallDefaultsToOwnerOnly(t *testing.T) {
	cfg := Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{
			0: interval.Window(0, 60),
			1: interval.Window(30, 60),
		}),
		Days:  1,
		Reads: []ReadEvent{{At: 40, Reader: 1, Wall: 0}, {At: 70, Reader: 1, Wall: 0}},
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res := net.Run()
	// Owner online [0,60): first read served, second missed.
	if res.ReadsServed != 1 || res.ReadsTotal != 2 {
		t.Errorf("reads = %d/%d", res.ReadsServed, res.ReadsTotal)
	}
}

func TestEagerPushAblation(t *testing.T) {
	// With eager push disabled, propagation only happens at session starts,
	// so delivery is slower (or at best equal) but still converges.
	mk := func(disable bool) *Result {
		cfg := threeNodeConfig([]PostEvent{
			{At: 40, Creator: 3, Wall: 0},
			{At: 70, Creator: 3, Wall: 0},
			{At: 100, Creator: 3, Wall: 0},
		})
		cfg.Days = 5
		cfg.DisableEagerPush = disable
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		return net.Run()
	}
	eager := mk(false)
	lazy := mk(true)
	if eager.DeliveredAll != 3 || lazy.DeliveredAll != 3 {
		t.Fatalf("both variants must converge: eager=%d lazy=%d",
			eager.DeliveredAll, lazy.DeliveredAll)
	}
	if lazy.PairActualHours.Mean()+1e-9 < eager.PairActualHours.Mean() {
		t.Errorf("lazy delay %.3fh must not beat eager %.3fh",
			lazy.PairActualHours.Mean(), eager.PairActualHours.Mean())
	}
	if lazy.Exchanges > eager.Exchanges {
		t.Errorf("lazy should do fewer exchanges: %d vs %d", lazy.Exchanges, eager.Exchanges)
	}
}

func TestTimeline(t *testing.T) {
	net, err := NewNetwork(threeNodeConfig([]PostEvent{
		{At: 40, Creator: 3, Wall: 0, Body: "first"},
		{At: 70, Creator: 1, Wall: 0, Body: "second"},
	}))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	net.Run()
	tl := net.Timeline(2, 10) // replica 2 hosts wall 0
	if len(tl) != 2 {
		t.Fatalf("timeline = %v", tl)
	}
	if tl[0].Body != "second" || tl[1].Body != "first" {
		t.Errorf("timeline order = %q,%q", tl[0].Body, tl[1].Body)
	}
	if net.Timeline(99, 5) != nil {
		t.Error("unknown node timeline should be nil")
	}
	if got := net.Timeline(2, 1); len(got) != 1 {
		t.Errorf("limit should cap items, got %d", len(got))
	}
}

// TestDegenerateAssignmentsNormalized is the regression test for the
// config-normalization entry point: a replica list that names the owner or
// repeats hosts must behave exactly like its clean equivalent — same group,
// same exchange counts, same delivery ledger — rather than silently
// inflating the replica group and double-counting anti-entropy contacts.
func TestDegenerateAssignmentsNormalized(t *testing.T) {
	posts := []PostEvent{
		{At: 40, Creator: 3, Wall: 0, Body: "hi"},
		{At: 1500, Creator: 3, Wall: 0, Body: "again"},
	}
	clean := threeNodeConfig(posts)

	degenerate := threeNodeConfig(posts)
	degenerate.Assignments = map[NodeID][]NodeID{0: {0, 1, 1, 2, 2, 0, 1}}

	cleanNet, err := NewNetwork(clean)
	if err != nil {
		t.Fatalf("NewNetwork(clean): %v", err)
	}
	degNet, err := NewNetwork(degenerate)
	if err != nil {
		t.Fatalf("NewNetwork(degenerate): %v", err)
	}

	wantGroup := []NodeID{0, 1, 2}
	if got := degNet.Group(0); !reflect.DeepEqual(got, wantGroup) {
		t.Fatalf("degenerate Group(0) = %v, want %v", got, wantGroup)
	}

	cleanRes := cleanNet.Run()
	degRes := degNet.Run()
	if !reflect.DeepEqual(cleanRes, degRes) {
		t.Errorf("degenerate assignments changed the run:\nclean:      %+v\ndegenerate: %+v", cleanRes, degRes)
	}
	if degRes.Exchanges != cleanRes.Exchanges {
		t.Errorf("Exchanges = %d, want %d (double-counted contacts)", degRes.Exchanges, cleanRes.Exchanges)
	}
}

// TestDegenerateAssignmentsBadIDs checks that normalization still rejects
// out-of-range owners and replicas with ErrBadID.
func TestDegenerateAssignmentsBadIDs(t *testing.T) {
	cfg := threeNodeConfig(nil)
	cfg.Assignments = map[NodeID][]NodeID{0: {1, -1}}
	if _, err := NewNetwork(cfg); !errors.Is(err, ErrBadID) {
		t.Errorf("negative replica: err = %v, want ErrBadID", err)
	}
	cfg.Assignments = map[NodeID][]NodeID{-2: {1}}
	if _, err := NewNetwork(cfg); !errors.Is(err, ErrBadID) {
		t.Errorf("negative owner: err = %v, want ErrBadID", err)
	}
}

// TestPeerPruningKeepsMeasurements pins the contact-possibility pruning:
// nodes with disjoint schedules are not peers (they can never meet), and
// pruning leaves all measurements of an overlapping configuration intact.
func TestPeerPruningKeepsMeasurements(t *testing.T) {
	// Nodes 0 and 2 share wall 0's group but are never online together;
	// node 1 overlaps both.
	cfg := Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{
			0: interval.Window(0, 120),
			1: interval.Window(60, 120),
			2: interval.Window(150, 60),
		}),
		Assignments: map[NodeID][]NodeID{0: {1, 2}},
		Days:        2,
		Posts:       []PostEvent{{At: 10, Creator: 0, Wall: 0, Body: "x"}},
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if got := net.nodes[0].peers; !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("node 0 peers = %v, want [1] (2 never co-online)", got)
	}
	if got := net.nodes[1].peers; !reflect.DeepEqual(got, []NodeID{0, 2}) {
		t.Fatalf("node 1 peers = %v, want [0 2]", got)
	}
	res := net.Run()
	if res.DeliveredAll != 1 {
		t.Fatalf("post should still reach the whole group through 1: %+v", res)
	}
}

// TestPeerPruningKeepsAbuttingSessions pins the boundary-instant subtlety:
// sessions [0,60) and [60,120) are disjoint as minute sets, but at t=60 the
// lower-ID node's online event fires before the higher-ID node's offline
// event, so the pair still exchanges. Pruning must therefore test the
// one-minute-dilated schedules and keep abutting pairs.
func TestPeerPruningKeepsAbuttingSessions(t *testing.T) {
	cfg := Config{
		Schedules: interval.BitmapsFromSets([]interval.Set{
			0: interval.Window(60, 120), // online event at 60 fires first (lower ID)
			1: interval.Window(0, 60),   // offline event at 60 fires second
		}),
		Assignments: map[NodeID][]NodeID{0: {1}},
		Days:        2,
		Posts:       []PostEvent{{At: 70, Creator: 0, Wall: 0, Body: "x"}},
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if got := net.nodes[0].peers; !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("node 0 peers = %v, want [1] (abutting sessions can meet)", got)
	}
	res := net.Run()
	if res.Exchanges == 0 {
		t.Error("abutting sessions should exchange at the shared boundary instant")
	}

	// A pair separated by a real gap (≥1 minute on both sides) stays pruned.
	cfg.Schedules = interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(62, 120),
		1: interval.Window(0, 60),
	})
	net, err = NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork(gapped): %v", err)
	}
	if got := net.nodes[0].peers; len(got) != 0 {
		t.Fatalf("node 0 peers = %v, want none (1-minute gap)", got)
	}
	if res := net.Run(); res.Exchanges != 0 {
		t.Errorf("gapped sessions exchanged %d times", res.Exchanges)
	}
}

// TestMidnightWrappingRowSessions: a schedule row built the way the
// online-time models build it — one wrapping AddInterval — yields exactly the
// session events of the equivalent sorted-interval Set (split at midnight),
// and the runtime serves reads on both sides of midnight.
func TestMidnightWrappingRowSessions(t *testing.T) {
	want := interval.Window(1400, 100) // [0,60) ∪ [1400,1440)
	table := onlinetime.NewTable(2)
	table.Bitmap(0).AddInterval(interval.Interval{Start: 1400, End: 1500})
	table.Bitmap(1).AddInterval(interval.Interval{Start: 600, End: 660})
	build := func(schedules []interval.Bitmap) *Network {
		n, err := NewNetwork(Config{
			Schedules:   schedules,
			Assignments: map[NodeID][]NodeID{0: nil},
			Days:        2,
			Reads: []ReadEvent{
				{At: 1430, Reader: 1, Wall: 0},
				{At: interval.DayMinutes + 30, Reader: 1, Wall: 0},
				{At: 700, Reader: 1, Wall: 0},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fromRow := build(table.Bitmaps())
	fromSet := build(interval.BitmapsFromSets([]interval.Set{want, interval.Window(600, 60)}))
	if got := fromRow.nodes[0].sessions; !reflect.DeepEqual(got, want.Intervals()) {
		t.Fatalf("sessions from wrapping row = %v, want %v", got, want.Intervals())
	}
	if !reflect.DeepEqual(fromRow.nodes[0].sessions, fromSet.nodes[0].sessions) {
		t.Fatalf("row sessions %v differ from set sessions %v", fromRow.nodes[0].sessions, fromSet.nodes[0].sessions)
	}
	a, b := fromRow.Run(), fromSet.Run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
	if a.ReadsTotal != 3 || a.ReadsServed != 2 {
		t.Errorf("reads served %d/%d, want 2/3 (both sides of midnight, not noon)", a.ReadsServed, a.ReadsTotal)
	}
}
