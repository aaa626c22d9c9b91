package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAvailabilityIncludesOwner(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 144), // owner: 10% of the day
		1: interval.Window(720, 144),
	})
	if got := Availability(0, nil, schedules); !almost(got, 0.1) {
		t.Errorf("degree-0 availability = %v, want 0.1 (owner's own time)", got)
	}
	if got := Availability(0, []socialgraph.UserID{1}, schedules); !almost(got, 0.2) {
		t.Errorf("availability with 1 replica = %v, want 0.2", got)
	}
}

func TestAvailabilityOverlapNotDoubleCounted(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 144),
		1: interval.Window(72, 144), // half overlaps the owner
	})
	if got := Availability(0, []socialgraph.UserID{1}, schedules); !almost(got, 216.0/1440) {
		t.Errorf("availability = %v, want %v", got, 216.0/1440)
	}
}

func TestAvailabilityOnDemandTime(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 120),    // owner
		1: interval.Window(100, 100),  // replica
		2: interval.Window(0, 240),    // friend (demand)
		3: interval.Window(1000, 100), // friend never covered
	})
	friends := []socialgraph.UserID{2, 3}
	// Demand = [0,240) ∪ [1000,1100) → 340 min. Avail = [0,200).
	// Covered demand = [0,200) → 200.
	v, ok := AvailabilityOnDemandTime(0, []socialgraph.UserID{1}, friends, schedules)
	if !ok || !almost(v, 200.0/340) {
		t.Errorf("AoD-time = (%v,%v), want %v", v, ok, 200.0/340)
	}
}

func TestAvailabilityOnDemandTimeUndefined(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{0: interval.Window(0, 60), 1: interval.Empty})
	if _, ok := AvailabilityOnDemandTime(0, nil, []socialgraph.UserID{1}, schedules); ok {
		t.Error("AoD-time with never-online friends must report !ok")
	}
	if _, ok := AvailabilityOnDemandTime(0, nil, nil, schedules); ok {
		t.Error("AoD-time with no friends must report !ok")
	}
}

// TestAvailabilityOutOfRangeIDsNeverOnline: owner, replica and friend IDs
// outside the schedule slice count as never-online users in the one-shot
// metrics, exactly as DelayCalc.Init treats them.
func TestAvailabilityOutOfRangeIDsNeverOnline(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 144),
		1: interval.Window(720, 144),
	})
	if got := Availability(0, []socialgraph.UserID{1, 99, -3}, schedules); !almost(got, 0.2) {
		t.Errorf("availability with stray replica IDs = %v, want 0.2", got)
	}
	if got := Availability(7, nil, schedules); got != 0 {
		t.Errorf("out-of-range owner availability = %v, want 0", got)
	}
	v, ok := AvailabilityOnDemandTime(0, []socialgraph.UserID{-1}, []socialgraph.UserID{1, 42}, schedules)
	if !ok || v != 0 {
		t.Errorf("AoD-time = (%v,%v), want (0,true): demand is friend 1 alone, owner never overlaps it", v, ok)
	}
	if _, ok := AvailabilityOnDemandTime(0, nil, []socialgraph.UserID{42, -1}, schedules); ok {
		t.Error("AoD-time over only out-of-range friends must report !ok")
	}
}

func TestAvailabilityOnDemandActivity(t *testing.T) {
	avail := interval.BitmapsFromSets([]interval.Set{interval.Window(600, 120)})[0] // [600,720)
	v, ok := AvailabilityOnDemandMinutes(&avail, []int{610, 700, 100, 719})
	if !ok || !almost(v, 0.75) {
		t.Errorf("AoD-activity = (%v,%v), want 0.75", v, ok)
	}
	if _, ok := AvailabilityOnDemandMinutes(&avail, nil); ok {
		t.Error("no activity must report !ok")
	}
}

func TestDelaySingleOverlapMatchesPaperFormula(t *testing.T) {
	// Two nodes sharing a single overlap window of d minutes → delay
	// (1440−d)/60 hours, the paper's 24−d expression.
	d := 90
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 200),
		1: interval.Window(200-d, 300),
	})
	res := UpdatePropagationDelay(0, []socialgraph.UserID{1}, schedules)
	want := float64(1440-d) / 60
	if !almost(res.Hours, want) || !res.Connected {
		t.Errorf("delay = %+v, want %.2fh connected", res, want)
	}
}

func TestDelayChainAddsHops(t *testing.T) {
	// owner↔1 overlap 60min, 1↔2 overlap 30min; owner and 2 disjoint.
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 120),
		1: interval.Window(60, 120),   // overlap with 0: [60,120)
		2: interval.Window(150, 1000), // overlap with 1: [150,180); none with 0
	})
	res := UpdatePropagationDelay(0, []socialgraph.UserID{1, 2}, schedules)
	if !res.Connected {
		t.Fatal("chain should be connected")
	}
	// Worst pair is (0,2): (1440-60)+(1440-30) minutes.
	want := float64((1440-60)+(1440-30)) / 60
	if !almost(res.Hours, want) {
		t.Errorf("chain delay = %v, want %v", res.Hours, want)
	}
}

func TestDelaySporadicIntermittentContactIsLower(t *testing.T) {
	// Same total overlap, but spread across 4 windows → much smaller worst
	// wait. This is the paper's explanation for Sporadic's lower delay.
	single := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 120),
		1: interval.Window(60, 600), // one 60-min overlap
	})
	spread := interval.BitmapsFromSets([]interval.Set{
		0: interval.UnionAll(interval.Window(0, 15), interval.Window(360, 15),
			interval.Window(720, 15), interval.Window(1080, 15)),
		1: interval.FullDay(), // overlap = owner's 4 spread sessions
	})
	d1 := UpdatePropagationDelay(0, []socialgraph.UserID{1}, single)
	d2 := UpdatePropagationDelay(0, []socialgraph.UserID{1}, spread)
	if d2.Hours >= d1.Hours {
		t.Errorf("intermittent contact delay %.2f should beat single-window %.2f", d2.Hours, d1.Hours)
	}
}

func TestDelayDisconnectedPairs(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 60),
		1: interval.Window(300, 60),
		2: interval.Window(0, 120), // connected to owner only
	})
	res := UpdatePropagationDelay(0, []socialgraph.UserID{1, 2}, schedules)
	if res.Connected {
		t.Error("replica 1 has no overlap with anyone: must be disconnected")
	}
	// The connected pair (0,2) still yields a finite delay.
	if res.Hours <= 0 {
		t.Errorf("connected pair delay should be positive, got %v", res.Hours)
	}
}

func TestDelayDegenerateCases(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{0: interval.Window(0, 60)})
	res := UpdatePropagationDelay(0, nil, schedules)
	if res.Hours != 0 || !res.Connected || res.Nodes != 1 {
		t.Errorf("degree-0 delay = %+v, want zero", res)
	}
}

func TestDelayFullOverlapIsGapOfCommonSet(t *testing.T) {
	// Identical schedules: delay = max gap of the schedule itself, not 0 —
	// an update posted while both are offline still waits for the next
	// session.
	s := interval.Window(600, 120)
	schedules := interval.BitmapsFromSets([]interval.Set{0: s, 1: s})
	res := UpdatePropagationDelay(0, []socialgraph.UserID{1}, schedules)
	want := float64(1440-120) / 60
	if !almost(res.Hours, want) {
		t.Errorf("identical-schedule delay = %v, want %v", res.Hours, want)
	}
}

func TestMaxAchievableAvailability(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 144),
		1: interval.Window(144, 144),
		2: interval.Window(288, 144),
	})
	// The bound any placement can reach: every friend hosts a replica.
	got := Availability(0, []socialgraph.UserID{1, 2}, schedules)
	if !almost(got, 432.0/1440) {
		t.Errorf("max achievable = %v, want %v", got, 432.0/1440)
	}
}

func TestHostLoadAndImbalance(t *testing.T) {
	load := make([]int, 4)
	for _, replicas := range [][]socialgraph.UserID{
		{1, 2},
		{2},
		{1},
		{99, -1}, // out of range must be ignored
		nil,
	} {
		AddHostLoad(load, replicas)
	}
	want := []int{0, 2, 2, 0}
	for i := range want {
		if load[i] != want[i] {
			t.Fatalf("load = %v, want %v", load, want)
		}
	}
	mean, maxV, cv := LoadImbalance(load)
	if !almost(mean, 1.0) || maxV != 2 {
		t.Errorf("imbalance mean=%v max=%v", mean, maxV)
	}
	if cv <= 0 {
		t.Errorf("cv = %v, want > 0 for unbalanced load", cv)
	}
	if _, _, cv := LoadImbalance([]int{3, 3, 3}); cv != 0 {
		t.Errorf("uniform load cv = %v, want 0", cv)
	}
	if m, mx, c := LoadImbalance(nil); m != 0 || mx != 0 || c != 0 {
		t.Error("empty load should be all zeros")
	}
}

// Property: availability is monotone in the replica set and, with every
// friend a replica, reaches the max achievable availability — the Set-oracle
// union of all schedules.
func TestQuickAvailabilityMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		sets := make([]interval.Set, n)
		for i := range sets {
			sets[i] = interval.Window(rng.Intn(1440), rng.Intn(500))
		}
		schedules := interval.BitmapsFromSets(sets)
		friends := make([]socialgraph.UserID, 0, n-1)
		for i := 1; i < n; i++ {
			friends = append(friends, socialgraph.UserID(i))
		}
		prev := 0.0
		for k := 0; k <= len(friends); k++ {
			v := Availability(0, friends[:k], schedules)
			if v+1e-12 < prev {
				return false
			}
			prev = v
		}
		// Bounded by the oracle union of every schedule involved.
		return almost(prev, interval.UnionAll(sets...).Fraction())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AoD-time ≥ availability restricted comparison does not hold in
// general, but AoD-time is always within [0,1] and equals 1 when the
// availability set covers the demand set.
func TestQuickAoDTimeBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		sets := make([]interval.Set, n)
		for i := range sets {
			sets[i] = interval.Window(rng.Intn(1440), rng.Intn(400))
		}
		schedules := interval.BitmapsFromSets(sets)
		friends := []socialgraph.UserID{1, 2, 3, 4, 5}
		v, ok := AvailabilityOnDemandTime(0, friends, friends, schedules)
		if !ok {
			return true
		}
		// All friends are replicas → demand fully covered → AoD-time = 1.
		return almost(v, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: delay is symmetric in replica order and non-negative.
func TestQuickDelayOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		sets := make([]interval.Set, n)
		for i := range sets {
			sets[i] = interval.Window(rng.Intn(1440), 30+rng.Intn(400))
		}
		schedules := interval.BitmapsFromSets(sets)
		rs := []socialgraph.UserID{1, 2, 3, 4, 5}
		a := UpdatePropagationDelay(0, rs, schedules)
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		b := UpdatePropagationDelay(0, rs, schedules)
		return almost(a.Hours, b.Hours) && a.Connected == b.Connected && a.Hours >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDelayCalcMatchesOneShot checks the incremental prefix solver against
// the one-shot UpdatePropagationDelay on random fragmented schedules for
// every prefix, including repeated and shrinking prefix requests.
func TestDelayCalcMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		sets := make([]interval.Set, n)
		for u := range sets {
			if rng.Intn(5) == 0 {
				continue // empty: disconnected node
			}
			k := 1 + rng.Intn(5)
			ivs := make([]interval.Interval, 0, k)
			for i := 0; i < k; i++ {
				start := rng.Intn(2*interval.DayMinutes) - interval.DayMinutes
				length := 1 + rng.Intn(interval.DayMinutes/4)
				ivs = append(ivs, interval.Interval{Start: start, End: start + length})
			}
			sets[u] = interval.NewSet(ivs...)
		}
		owner := socialgraph.UserID(0)
		seq := make([]socialgraph.UserID, 0, n-1)
		for u := 1; u < n; u++ {
			seq = append(seq, socialgraph.UserID(u))
		}
		schedules := interval.BitmapsFromSets(sets)
		var dc DelayCalc
		dc.Init(owner, seq, schedules)
		for k := 0; k <= len(seq); k++ {
			want := UpdatePropagationDelay(owner, seq[:k], schedules)
			got := dc.Prefix(k)
			if got != want {
				t.Fatalf("trial %d prefix %d: DelayCalc %+v vs one-shot %+v", trial, k, got, want)
			}
		}
		// Repeated and shrinking prefixes must answer identically too.
		for _, k := range []int{len(seq), 1, 1, len(seq) / 2, len(seq)} {
			want := UpdatePropagationDelay(owner, seq[:k], schedules)
			if got := dc.Prefix(k); got != want {
				t.Fatalf("trial %d revisit prefix %d: %+v vs %+v", trial, k, got, want)
			}
		}
	}
}

// TestDelayCalcScratchReuse reuses one DelayCalc across selections of
// different sizes, as the sweep workers do.
func TestDelayCalcScratchReuse(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{
		0: interval.Window(0, 120),
		1: interval.Window(60, 120),
		2: interval.Window(600, 60),
		3: interval.Window(100, 300),
	})
	var dc DelayCalc
	for _, seq := range [][]socialgraph.UserID{
		{1, 2, 3}, {3}, {2, 1}, {}, {1, 2},
	} {
		dc.Init(0, seq, schedules)
		for k := 0; k <= len(seq); k++ {
			want := UpdatePropagationDelay(0, seq[:k], schedules)
			if got := dc.Prefix(k); got != want {
				t.Fatalf("seq %v prefix %d: %+v vs %+v", seq, k, got, want)
			}
		}
	}
}

// TestDelayCalcOutOfRangeIDs: IDs outside the bitmap slice behave like
// never-online nodes.
func TestDelayCalcOutOfRangeIDs(t *testing.T) {
	schedules := interval.BitmapsFromSets([]interval.Set{0: interval.FullDay(), 1: interval.Window(0, 60)})
	var dc DelayCalc
	dc.Init(0, []socialgraph.UserID{1, 99, -3}, schedules)
	for k := 0; k <= 3; k++ {
		want := UpdatePropagationDelay(0, []socialgraph.UserID{1, 99, -3}[:k], schedules)
		if got := dc.Prefix(k); got != want {
			t.Fatalf("prefix %d: %+v vs %+v", k, got, want)
		}
	}
}

// TestAvailabilityOnDemandMinutesAgrees checks the metric against the Set
// oracle's membership count on a midnight-wrapping availability set.
func TestAvailabilityOnDemandMinutesAgrees(t *testing.T) {
	avail := interval.NewSet(interval.Interval{Start: 100, End: 200}, interval.Interval{Start: 1400, End: 1460})
	bm := interval.BitmapsFromSets([]interval.Set{avail})[0]
	minutes := []int{150, 500, 10}
	hit := 0
	for _, m := range minutes {
		if avail.Contains(m) {
			hit++
		}
	}
	got, ok := AvailabilityOnDemandMinutes(&bm, minutes)
	if want := float64(hit) / float64(len(minutes)); !ok || got != want {
		t.Fatalf("dense %v,%v vs oracle %v", got, ok, want)
	}
	if _, ok := AvailabilityOnDemandMinutes(&bm, nil); ok {
		t.Error("no activities should report ok=false")
	}
}

// TestGini checks the load-imbalance coefficient on known distributions.
func TestGini(t *testing.T) {
	tests := []struct {
		load []int
		want float64
	}{
		{nil, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{5}, 0},
		{[]int{3, 3, 3, 3}, 0},               // perfectly even
		{[]int{0, 0, 0, 12}, 0.75},           // all load on one of four nodes: (n-1)/n
		{[]int{1, 1, 1, 1, 0, 0, 0, 0}, 0.5}, // half the nodes carry everything evenly
	}
	for _, tt := range tests {
		if got := Gini(tt.load); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Gini(%v) = %v, want %v", tt.load, got, tt.want)
		}
	}
	// Order must not matter, and the input must not be mutated.
	in := []int{9, 1, 4, 0, 4}
	shuffled := []int{0, 4, 9, 4, 1}
	if Gini(in) != Gini(shuffled) {
		t.Error("Gini depends on input order")
	}
	if in[0] != 9 || in[3] != 0 {
		t.Error("Gini mutated its input")
	}
	// More skew means a larger coefficient.
	if !(Gini([]int{10, 0, 0, 0}) > Gini([]int{4, 3, 2, 1})) {
		t.Error("Gini does not order skew correctly")
	}
}

// TestSummarizeHops checks the lookup hop-count aggregation.
func TestSummarizeHops(t *testing.T) {
	if s := SummarizeHops(nil); s.Lookups != 0 || s.MeanHops != 0 || s.MaxHops != 0 {
		t.Errorf("empty hop summary = %+v", s)
	}
	s := SummarizeHops([]int{0, 2, 4})
	if s.Lookups != 3 || s.MeanHops != 2 || s.MaxHops != 4 {
		t.Errorf("hop summary = %+v, want {3 2 4}", s)
	}
}

// TestAoDTrackerMatchesRescan drives the incremental tracker through the
// sweep's exact call shape — InitUser once, then per policy a Reset followed
// by a chain of growing unions with Advance — and checks Value against the
// full AvailabilityOnDemandMinutes rescan at every step. Activity minutes
// include duplicates, word-boundary minutes, and out-of-range values, which
// must normalize exactly like the rescan's Contains (mod DayMinutes).
func TestAoDTrackerMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var tr AoDTracker
	for trial := 0; trial < 200; trial++ {
		nAct := rng.Intn(12)
		raw := make([]int, 0, nAct+4)
		for i := 0; i < nAct; i++ {
			m := rng.Intn(3*interval.DayMinutes) - interval.DayMinutes
			raw = append(raw, m)
			if rng.Intn(3) == 0 {
				raw = append(raw, m) // duplicates count double in the rescan too
			}
		}
		if trial%5 == 0 {
			raw = append(raw, 0, 63, 64, interval.DayMinutes-1)
		}
		norm := make([]int, len(raw))
		for i, m := range raw {
			norm[i] = ((m % interval.DayMinutes) + interval.DayMinutes) % interval.DayMinutes
		}
		tr.InitUser(raw)
		// The mask Advance counts hits through: the distinct minutes.
		if got, want := tr.act.Set(), minuteSet(norm); !got.Equal(want) {
			t.Fatalf("trial %d: activity mask = %s, want %s", trial, got, want)
		}
		for reset := 0; reset < 2; reset++ {
			avail := interval.BitmapsFromSets([]interval.Set{randSet(rng)})[0]
			tr.Reset(&avail)
			for step := 0; step < 6; step++ {
				if step > 0 {
					grow := interval.BitmapsFromSets([]interval.Set{randSet(rng)})[0]
					avail.OrWith(&grow)
					tr.Advance(&avail)
				}
				want, wantOK := AvailabilityOnDemandMinutes(&avail, norm)
				got, gotOK := tr.Value()
				if want != got || wantOK != gotOK {
					t.Fatalf("trial %d reset %d step %d: tracker %v,%v vs rescan %v,%v (acts %v)",
						trial, reset, step, got, gotOK, want, wantOK, raw)
				}
			}
		}
	}
}

// minuteSet is the Set oracle of a distinct-minute universe.
func minuteSet(minutes []int) interval.Set {
	ivs := make([]interval.Interval, len(minutes))
	for i, m := range minutes {
		ivs[i] = interval.Interval{Start: m, End: m + 1}
	}
	return interval.NewSet(ivs...)
}

// randSet builds a small random interval set for the tracker trials.
func randSet(rng *rand.Rand) interval.Set {
	n := rng.Intn(5)
	ivs := make([]interval.Interval, 0, n)
	for i := 0; i < n; i++ {
		start := rng.Intn(interval.DayMinutes)
		ivs = append(ivs, interval.Interval{Start: start, End: start + 1 + rng.Intn(200)})
	}
	return interval.NewSet(ivs...)
}

// floydDelay is the delay metric computed the textbook way, sharing no code
// with DelayCalc: each edge weight is MaxGap of a materialized intersection
// (IntersectInto), then Floyd–Warshall over {owner} ∪ seq. Out-of-range IDs
// are never online.
func floydDelay(owner socialgraph.UserID, seq []socialgraph.UserID, bitmaps []interval.Bitmap) DelayResult {
	ids := append([]socialgraph.UserID{owner}, seq...)
	n := len(ids)
	sched := func(u socialgraph.UserID) *interval.Bitmap {
		if u < 0 || int(u) >= len(bitmaps) {
			return new(interval.Bitmap)
		}
		return &bitmaps[u]
	}
	const inf = math.MaxInt
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i == j {
				continue
			}
			var common interval.Bitmap
			common.IntersectInto(sched(ids[i]), sched(ids[j]))
			d[i][j] = inf
			if gap, ok := common.MaxGap(); ok {
				d[i][j] = gap
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	res := DelayResult{Connected: true, Nodes: n}
	worst := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[i][j] == inf {
				res.Connected = false
			} else if d[i][j] > worst {
				worst = d[i][j]
			}
		}
	}
	res.Hours = float64(worst) / 60
	return res
}

// delayWorld is one owner's schedules and the selections a sweep loads for
// it, in order: the first through Init, the rest through Reselect.
type delayWorld struct {
	bitmaps    []interval.Bitmap
	owner      socialgraph.UserID
	selections [][]socialgraph.UserID
}

// checkDelayCalc loads w's selections into dc and compares every prefix,
// ascending (one past the end included) and then shrinking, with the
// Floyd–Warshall oracle.
func checkDelayCalc(dc *DelayCalc, w delayWorld) error {
	for s, seq := range w.selections {
		if s == 0 {
			dc.Init(w.owner, seq, w.bitmaps)
		} else {
			dc.Reselect(seq)
		}
		var ks []int
		for k := 0; k <= len(seq)+1; k++ {
			ks = append(ks, k)
		}
		for k := len(seq); k >= 0; k-- {
			ks = append(ks, k)
		}
		for _, k := range ks {
			want := floydDelay(w.owner, seq[:min(k, len(seq))], w.bitmaps)
			if got := dc.Prefix(k); got != want {
				return fmt.Errorf("owner %d selection %d %v prefix %d: DelayCalc %+v, oracle %+v", w.owner, s, seq, k, got, want)
			}
		}
	}
	return nil
}

// randomSchedules draws n fragmented schedules, one in five empty.
func randomSchedules(rng *rand.Rand, n int) []interval.Bitmap {
	sets := make([]interval.Set, n)
	for u := range sets {
		if rng.Intn(5) == 0 {
			continue
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			sets[u] = sets[u].Union(interval.Window(rng.Intn(interval.DayMinutes), 1+rng.Intn(360)))
		}
	}
	return interval.BitmapsFromSets(sets)
}

// TestQuickDelayCalcReselectMatchesFloydWarshall runs one owner through
// several overlapping selections drawn from one candidate pool — as the
// sweep's policies choose from one owner's friends — with repeated IDs, the
// owner inside a selection, out-of-range and negative IDs and empty
// schedules. The same owner and IDs are then loaded again over other
// schedules: Init must forget every memoized weight. One calculator serves
// every world, as one sweep worker's does.
func TestQuickDelayCalcReselectMatchesFloydWarshall(t *testing.T) {
	var dc DelayCalc
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		id := func() socialgraph.UserID { return socialgraph.UserID(rng.Intn(n+4) - 2) }
		w := delayWorld{bitmaps: randomSchedules(rng, n), owner: socialgraph.UserID(rng.Intn(n))}
		if rng.Intn(8) == 0 {
			w.owner = id()
		}
		pool := make([]socialgraph.UserID, 10)
		for i := range pool {
			pool[i] = id()
		}
		pool[0] = w.owner
		for s := 0; s < 4; s++ {
			seq := make([]socialgraph.UserID, rng.Intn(12))
			for i := range seq {
				seq[i] = pool[rng.Intn(len(pool))]
			}
			w.selections = append(w.selections, seq)
		}
		if err := checkDelayCalc(&dc, w); err != nil {
			t.Log(err)
			return false
		}
		w.bitmaps = randomSchedules(rng, n)
		if err := checkDelayCalc(&dc, w); err != nil {
			t.Log("over new schedules:", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// decodeDelayWorld reads a delayWorld off fuzz bytes (zeros once they run
// out): up to 8 users with up to 3 windows each, an owner and up to 4
// selections of up to 11 IDs in [-2, users+2).
func decodeDelayWorld(data []byte) delayWorld {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%8
	sets := make([]interval.Set, n)
	for u := range sets {
		for k := next() % 4; k > 0; k-- {
			sets[u] = sets[u].Union(interval.Window(next()*interval.DayMinutes/256, 1+2*next()))
		}
	}
	id := func() socialgraph.UserID { return socialgraph.UserID(next()%(n+4) - 2) }
	w := delayWorld{bitmaps: interval.BitmapsFromSets(sets), owner: id()}
	for s := 1 + next()%4; s > 0; s-- {
		seq := make([]socialgraph.UserID, next()%12)
		for i := range seq {
			seq[i] = id()
		}
		w.selections = append(w.selections, seq)
	}
	return w
}

// FuzzDelayCalc holds Init / Reselect / Prefix to the Floyd–Warshall oracle
// on decoded worlds, then reloads the same IDs over the schedules in reverse
// user order, which a stale memoized weight would get wrong.
func FuzzDelayCalc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 0, 60, 40, 90, 1, 30, 200, 3, 10, 20, 128, 50, 250, 5, 0, 2, 5, 3, 4, 5, 2, 1, 3, 3, 3, 5, 0, 1, 2})
	f.Add([]byte{7, 1, 0, 255, 2, 100, 10, 140, 10, 0, 3, 5, 5, 200, 120, 9, 0, 1, 1, 3, 3, 1, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeDelayWorld(data)
		var dc DelayCalc
		if err := checkDelayCalc(&dc, w); err != nil {
			t.Fatal(err)
		}
		slices.Reverse(w.bitmaps)
		if err := checkDelayCalc(&dc, w); err != nil {
			t.Fatal("over reversed schedules:", err)
		}
	})
}

// TestAoDTrackerManyActivitiesOnOneMinute: a minute's multiplicity does not
// wrap. 70,000 activities on one minute (more than a uint16 holds) count
// exactly as the one-shot form counts them, whether the minute is covered at
// Reset or by a later Advance.
func TestAoDTrackerManyActivitiesOnOneMinute(t *testing.T) {
	minutes := make([]int, 70_000, 70_003)
	for i := range minutes {
		minutes[i] = 600
	}
	minutes = append(minutes, 10, 20, 700)
	var tr AoDTracker
	tr.InitUser(minutes)
	early := interval.BitmapsFromSets([]interval.Set{interval.Window(590, 20)})[0]
	late := interval.BitmapsFromSets([]interval.Set{interval.Window(0, 15)})[0]
	tr.Reset(&early)
	check := func(avail *interval.Bitmap) {
		t.Helper()
		want, wantOK := AvailabilityOnDemandMinutes(avail, minutes)
		if got, ok := tr.Value(); got != want || ok != wantOK {
			t.Fatalf("tracker %v,%v, one-shot %v,%v", got, ok, want, wantOK)
		}
	}
	check(&early)
	tr.Reset(&late)
	check(&late)
	late.OrWith(&early)
	tr.Advance(&late)
	check(&late)
}

var benchSink int

// BenchmarkDelayCalc times the sweep's delay work for one owner: three
// policies' 10-node selections over the same 10 candidates, every prefix of
// each, Init once and Reselect per selection. The schedules are fragmented,
// Sporadic-like days of 5–15 sessions.
func BenchmarkDelayCalc(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]interval.Set, 11)
	for u := range sets {
		for k := 5 + rng.Intn(11); k > 0; k-- {
			sets[u] = sets[u].Union(interval.Window(rng.Intn(interval.DayMinutes), 5+rng.Intn(36)))
		}
	}
	bitmaps := interval.BitmapsFromSets(sets)
	sels := make([][]socialgraph.UserID, 3)
	for s := range sels {
		sels[s] = make([]socialgraph.UserID, 10)
		for i, p := range rng.Perm(10) {
			sels[s][i] = socialgraph.UserID(p + 1)
		}
	}
	var dc DelayCalc
	b.ReportAllocs()
	for b.Loop() {
		dc.Init(0, nil, bitmaps)
		for _, seq := range sels {
			dc.Reselect(seq)
			for k := 0; k <= len(seq); k++ {
				benchSink += dc.Prefix(k).Nodes
			}
		}
	}
}
