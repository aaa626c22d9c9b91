package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dosn/internal/fault"
	"dosn/internal/mathrand"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
)

// Execution-only telemetry; see internal/obs. Synthesis is timed, never
// time-dependent: the timer reading flows out to reports only.
var (
	obsDatasets       = obs.C("trace.datasets_synthesized")
	obsActivities     = obs.C("trace.activities_generated") // rows drawn, before the filter
	obsActivitiesKept = obs.C("trace.activities_kept")
	obsUsersKept      = obs.C("trace.users_kept")
	obsSynthTimer     = obs.T("trace.synthesize")
)

// faultSynthesize sits at the head of dataset synthesis — the largest
// single allocation in a matrix run — so chaos tests can model OOM-like
// failures at the point a cell first touches bulk memory.
var faultSynthesize = fault.NewSite("trace.synthesize")

// faultSynthesizePass sits in the pass that runs beside the row loop, on a
// goroutine of its own, so chaos tests can prove that a failure off the
// calling goroutine still ends as the cell's error.
var faultSynthesizePass = fault.NewSite("trace.synthesize-pass")

// Paper-reported sizes of the filtered traces. The "paper" scale
// synthesizes this many users and then applies the activity filter, so
// fewer remain: 12,952 Facebook and 12,303 Twitter users at the default
// seeds.
const (
	// PaperFacebookUsers is the paper's filtered New Orleans trace size
	// (13,884 users, average degree 41, ~50 wall posts per user).
	PaperFacebookUsers = 13884
	// PaperTwitterUsers is the paper's filtered Twitter trace size (14,933
	// users, average follower degree 76).
	PaperTwitterUsers = 14933
)

// SynthConfig parameterizes a synthetic dataset calibrated to one of the
// paper's traces. The original traces are not redistributable; substitution
// is sound because the metrics depend on the degree distribution, per-user
// activity volume, diurnal clustering of activity times, and interaction
// skew — all of which are reproduced here.
type SynthConfig struct {
	// Name labels the dataset.
	Name string
	// Directed selects a follower graph (Twitter) over friendship (Facebook).
	Directed bool
	// Users is the number of users.
	Users int
	// MeanDegree and SigmaDegree parameterize the log-normal degree
	// (follower-count) distribution. Log-normal fits both traces' heavy
	// tails while keeping plenty of users at the paper's modal degree 10.
	MeanDegree  float64
	SigmaDegree float64
	// MeanActivities and SigmaActivities parameterize the log-normal
	// per-user created-activity count.
	MeanActivities  float64
	SigmaActivities float64
	// Days is the trace length in days (the paper's Twitter trace spans 14).
	// At most 256: the sort keeps a row's day in a byte.
	Days int
	// AffinityZipfS skews which friend an activity targets (rank-1/rank^s),
	// giving the MostActive policy its signal. 0 disables the skew.
	AffinityZipfS float64
	// DiurnalSigmaMinutes is the spread of a user's activity times around
	// his home minute-of-day.
	DiurnalSigmaMinutes float64
	// UniformFraction is the share of activities at a uniform time of day
	// (background noise off the diurnal peaks).
	UniformFraction float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultFacebookConfig returns a Facebook-like configuration with the given
// number of users (use PaperFacebookUsers for the paper-scale trace).
func DefaultFacebookConfig(users int) SynthConfig {
	return SynthConfig{
		Name:                "facebook",
		Directed:            false,
		Users:               users,
		MeanDegree:          41,
		SigmaDegree:         0.95,
		MeanActivities:      55,
		SigmaActivities:     0.9,
		Days:                30,
		AffinityZipfS:       1.0,
		DiurnalSigmaMinutes: 70,
		UniformFraction:     0.05,
		Seed:                1,
	}
}

// DefaultTwitterConfig returns a Twitter-like configuration with the given
// number of users (use PaperTwitterUsers for the paper-scale trace).
func DefaultTwitterConfig(users int) SynthConfig {
	return SynthConfig{
		Name:                "twitter",
		Directed:            true,
		Users:               users,
		MeanDegree:          76,
		SigmaDegree:         1.1,
		MeanActivities:      40,
		SigmaActivities:     1.0,
		Days:                14,
		AffinityZipfS:       1.2,
		DiurnalSigmaMinutes: 90,
		UniformFraction:     0.08,
		Seed:                2,
	}
}

// Validate reports configuration errors. Every numeric knob is also checked
// for NaN/Inf: a comparison like `MeanDegree <= 0` is silently false for
// NaN, which would let a garbage config through to generation instead of
// failing with a message.
func (c SynthConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MeanDegree", c.MeanDegree},
		{"SigmaDegree", c.SigmaDegree},
		{"MeanActivities", c.MeanActivities},
		{"SigmaActivities", c.SigmaActivities},
		{"AffinityZipfS", c.AffinityZipfS},
		{"DiurnalSigmaMinutes", c.DiurnalSigmaMinutes},
		{"UniformFraction", c.UniformFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: config %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.Users <= 0:
		return errors.New("trace: config needs Users > 0")
	case c.MeanDegree <= 0:
		return errors.New("trace: config needs MeanDegree > 0")
	case c.MeanActivities < 0:
		return errors.New("trace: config needs MeanActivities >= 0")
	case c.Days <= 0:
		return errors.New("trace: config needs Days > 0")
	case c.Days > maxDays:
		return fmt.Errorf("trace: config Days must be <= %d, got %d", maxDays, c.Days)
	case c.UniformFraction < 0 || c.UniformFraction > 1:
		return errors.New("trace: UniformFraction must be in [0,1]")
	default:
		return nil
	}
}

// Synthesize generates a dataset from the configuration. Generation is
// deterministic for a given config.
func Synthesize(cfg SynthConfig) (*Dataset, error) {
	return synthesize(cfg, 0)
}

// synthesize is the one generator: it draws the whole population and keeps
// the users who create at least minActivity activities (everyone when
// minActivity <= 0). The result equals the unfiltered dataset followed by
// FilterMinActivity(minActivity) byte for byte — pinned by
// TestQuickFusedSynthesisMatchesFilter — without ever holding the rows the
// filter would drop.
//
// The filter decision needs no row: a user creates counts[u] activities if
// he has anyone to address and none otherwise, and counts is drawn before
// the first activity. The row loop still makes every draw of every row —
// the RNG stream is the contract the golden snapshots pin — but stores only
// rows whose creator and receiver both survive, already renamed. Sorting and
// indexing then run on survivors only; a stable sort commutes with a filter,
// so the order is the one the two-step path reaches.
//
// Passes that share no output overlap through fault.Parallel: the row loop's
// two stages (rowRing) and the induced subgraph beside each other, the
// column scatters beside each other, the index builds beside each other. No
// byte depends on the overlap.
func synthesize(cfg SynthConfig, minActivity int) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := faultSynthesize.InjectSeeded(cfg.Seed); err != nil {
		return nil, err
	}
	sp := obsSynthTimer.Begin()
	defer sp.End()
	rng := mathrand.New(cfg.Seed)

	degrees := lognormalInts(rng, cfg.Users, cfg.MeanDegree, cfg.SigmaDegree, 1, cfg.Users-1)
	var g *socialgraph.Graph
	if cfg.Directed {
		g = followerGraph(degrees, rng)
	} else {
		g = socialgraph.GenerateConfigurationModel(degrees, rng)
	}

	// Each user gets a home minute-of-day drawn from a two-peak diurnal
	// mixture (midday and evening), around which his activities cluster.
	// FixedLength online windows center on exactly this clustering.
	homes := make([]int, cfg.Users)
	for u := range homes {
		homes[u] = sampleHomeMinute(rng)
	}

	counts := lognormalInts(rng, cfg.Users, cfg.MeanActivities, cfg.SigmaActivities, 0, 100000)

	// Exact number of rows drawn, before any column is allocated:
	// activityTargets depends only on the graph and counts are already
	// drawn, so the total consumes no RNG. This is also where the int32
	// index guard fires: past MaxActivities the CSR build and the sort
	// permutation would silently wrap. The sum is 64-bit so that it cannot
	// wrap first where int has 32 bits.
	var total int64
	maxTargets := 0
	for u := range counts {
		n := len(activityTargets(g, socialgraph.UserID(u)))
		if n == 0 {
			counts[u] = 0 // nobody to address: the user creates nothing
		}
		maxTargets = max(maxTargets, n)
		total += int64(counts[u])
	}
	if err := checkActivityCount(cfg.Name, total); err != nil {
		return nil, err
	}

	// The kept users, ascending, and remap[old] = new ID or -1. A nil remap
	// keeps everyone under his own ID. bound is the number of rows whose
	// creator survives — all the generation buffers can ever hold; how many
	// of those also keep their receiver is known only once they are drawn.
	var kept, remap []socialgraph.UserID
	users, bound := cfg.Users, int(total) // ≤ MaxActivities, checked above
	if minActivity > 0 {
		remap = make([]socialgraph.UserID, cfg.Users)
		bound = 0
		for u, c := range counts {
			remap[u] = -1
			if c >= minActivity {
				remap[u] = socialgraph.UserID(len(kept))
				kept = append(kept, socialgraph.UserID(u))
				bound += c
			}
		}
		users = len(kept)
	}

	// Generation order is user-ID order (the RNG contract every golden
	// snapshot pins); the rows are then brought into stable timestamp order
	// by the day-partitioned counting scatter. It is stable on the timestamp
	// key, so equal seconds keep generation order, which the CSR build
	// preserves per user — the order Reindex's stable sort reaches (pinned by
	// TestQuickScatterSortMatchesStableSort and, through the reference
	// generator, TestQuickFusedSynthesisMatchesFilter).
	//
	// Rows are buffered in generation order with the creator implied:
	// runs[u] rows in a row belong to kept user u. The sort key is stored in
	// the form the scatter consumes: day byte, second of day.
	gen := genRows{
		runs:      make([]int32, users),
		receiver:  make([]socialgraph.UserID, bound),
		day:       make([]uint8, bound),
		second:    make([]int32, bound),
		dayCounts: make([]int32, cfg.Days),
	}
	sub := g
	ring := newRowRing(maxTargets, total)
	var pos int
	var err error
	fault.Parallel(func() {
		ring.draw(rng, g, counts, homes, remap, cfg)
	}, func() {
		pos, err = ring.resolve(&gen, g, remap, cfg.AffinityZipfS)
	}, func() {
		if err := faultSynthesizePass.InjectSeeded(cfg.Seed); err != nil {
			panic(err) // a pass returns nothing: either fault form ends as its panic
		}
		if remap != nil {
			sub, _ = g.InducedSubgraph(kept)
		}
	})
	if err != nil {
		return nil, err
	}
	gen.receiver = gen.receiver[:pos] // the other buffers are read up to this length

	d := &Dataset{Name: cfg.Name, Graph: sub}
	gen.scatterSortByDay(d, Epoch.Unix())
	d.buildIndexes(false)
	obsDatasets.Inc()
	obsActivities.Add(int64(total))
	obsActivitiesKept.Add(int64(pos))
	obsUsersKept.Add(int64(users))
	return d, nil
}

// daySeconds is the length of the synthetic day grid every timestamp is
// generated on: at = epoch + day·daySeconds + second-of-day.
const daySeconds = 24 * 3600

// maxDays is the longest trace the synthesizer generates: the scatter sort
// keeps each row's day in a byte.
const maxDays = 256

// genRows buffers synthesized activities in generation order. The buffers
// are sized by an upper bound; len(receiver) says how many rows they hold.
// The creator column is implied: the rows come grouped by creator in
// ascending ID order, runs[u] of them for user u. The sort key is held as
// (day, second of day) with the per-day row counts — what scatterSortByDay
// consumes.
type genRows struct {
	runs     []int32
	receiver []socialgraph.UserID

	day       []uint8
	second    []int32
	dayCounts []int32
}

// partitionByDay stably scatters src into dst grouped by day. cur must hold
// the running write cursor per day (a prefix sum over the per-day row
// counts) and is consumed. The cursor array is one int32 per day — every
// increment is L1-resident — and each day's region fills front to back, so
// the writes form one sequential stream per day rather than random stores
// across a span-sized histogram.
func partitionByDay(src, dst []int32, day []uint8, cur []int32) {
	for i, d := range day {
		p := cur[d]
		cur[d] = p + 1
		dst[p] = src[i]
	}
}

// scatterWithinDays finishes one day-partitioned column: a stable counting
// scatter by second-of-day inside each day's contiguous range, written into
// dst. second holds each row's second-of-day in partitioned order. The
// daySeconds-sized histogram is reused across days — its 86400 int32 buckets
// stay cache-resident across a whole day's rows, which a per-second
// full-span histogram cannot.
func scatterWithinDays(dayCounts, second, src, dst []int32) {
	hist := make([]int32, daySeconds)
	lo := int32(0)
	for _, c := range dayCounts {
		hi := lo + c
		if c == 0 {
			continue
		}
		clear(hist)
		for _, k := range second[lo:hi] {
			hist[k]++
		}
		pos := lo
		for k, cnt := range hist {
			hist[k] = pos
			pos += cnt
		}
		for i := lo; i < hi; i++ {
			k := second[i]
			p := hist[k]
			hist[k] = p + 1
			dst[p] = src[i]
		}
		lo = hi
	}
}

// expandWithinDays writes the timestamp-derived columns of day-partitioned
// rows in final order. Rows with equal keys carry equal timestamps, so no
// scatter is needed: each day's second-of-day histogram is expanded front to
// back into atUnix and its minute-of-day twin.
func expandWithinDays(dayCounts, second []int32, epochUnix int64, atUnix []int64, minOfDay []uint16) {
	hist := make([]int32, daySeconds)
	lo := int32(0)
	for d, c := range dayCounts {
		hi := lo + c
		if c == 0 {
			continue
		}
		clear(hist)
		for _, k := range second[lo:hi] {
			hist[k]++
		}
		base := epochUnix + int64(d)*daySeconds
		pos := lo
		for k, cnt := range hist {
			for end := pos + cnt; pos < end; pos++ {
				atUnix[pos] = base + int64(k)
				//dosn:boundschecked k < 86400, so the minute is < 1440
				minOfDay[pos] = uint16(k / 60)
			}
		}
		lo = hi
	}
}

// scatterSortByDay brings day-keyed generation-order rows into stable
// timestamp order and stores them in d as final, exact-size columns
// (creator, receiver, atUnix, minOfDay), consuming the buffer. It is a
// two-round counting scatter keyed on (day, second-of-day): round one stably
// partitions a column by day; round two finishes each day with a stable
// per-second counting scatter. Stable on day then stable on second-of-day is
// stable on the full timestamp, so ties keep generation order exactly as a
// single full-span counting scatter would — the property every golden
// snapshot pins through the CSR indexes
// (TestQuickScatterSortMatchesStableSort).
//
// The key column goes first; once it is partitioned the three outputs share
// nothing and run side by side: timestamps (with minOfDay), creators — fed
// straight from the per-user runs — and receivers. Validate's Days cap
// (maxDays) keeps every day index in a byte, and int32 positions are safe
// because every construction path guards the row count against
// MaxActivities first.
//
// The two scratch columns allocated here are spent when the scatter returns
// and have exactly the length and element type of the CSR index columns, so
// they are left in d.createdIdx and d.receivedIdx as the backing arrays
// buildIndexes overwrites.
func (r *genRows) scatterSortByDay(d *Dataset, epochUnix int64) {
	n := len(r.receiver)
	day := r.day[:n]
	// cursors returns a fresh write cursor per day: the prefix sums of
	// dayCounts. Every partition pass consumes its own.
	cursors := func() []int32 {
		cur := make([]int32, len(r.dayCounts))
		pos := int32(0)
		for d, c := range r.dayCounts {
			cur[d] = pos
			pos += c
		}
		return cur
	}
	second := make([]int32, n)
	partitionByDay(r.second, second, day, cursors())
	receiverByDay := make([]socialgraph.UserID, n)

	// Each pass allocates its own output, so the zeroing overlaps too.
	fault.Parallel(func() {
		byDay := r.second // dead now that the keys are partitioned: the creators' scratch
		cur := cursors()
		i := 0
		for u, run := range r.runs {
			for end := i + int(run); i < end; i++ {
				byDay[cur[day[i]]] = socialgraph.UserID(u)
				cur[day[i]]++
			}
		}
		d.creator = make([]socialgraph.UserID, n)
		scatterWithinDays(r.dayCounts, second, byDay, d.creator)
	}, func() {
		partitionByDay(r.receiver, receiverByDay, day, cursors())
		d.receiver = make([]socialgraph.UserID, n)
		scatterWithinDays(r.dayCounts, second, receiverByDay, d.receiver)
	}, func() {
		d.atUnix, d.minOfDay = make([]int64, n), make([]uint16, n)
		expandWithinDays(r.dayCounts, second, epochUnix, d.atUnix, d.minOfDay)
	})
	d.createdIdx, d.receivedIdx = second[:0], receiverByDay[:0]
}

// permInto is rand.Perm writing a permutation of [0, len(m)) into m: the
// same Fisher–Yates loop as math/rand (including the i=0 iteration, which
// draws from the rng), so it consumes the generator identically and produces
// the identical permutation — without one slice allocation per user.
func permInto(rng *mathrand.Rand, m []int32) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		//dosn:boundschecked i < len(m) <= the graph's user count, far under int32
		m[j] = int32(i)
	}
}

// activityTargets returns the users u's activities can land on: friends in
// an undirected graph; followees in a follower graph (so that the creators
// of activity on a profile are exactly the profile owner's replica
// candidates — his followers).
func activityTargets(g *socialgraph.Graph, u socialgraph.UserID) []socialgraph.UserID {
	if g.Kind() == socialgraph.Directed {
		return g.Followees(u)
	}
	return g.Neighbors(u)
}

// followerGraph assigns each user the given number of followers, drawn
// uniformly from the other users. The heavy tail comes from the follower-
// count sequence itself. Rejection sampling runs against one reusable stamp
// array instead of a per-user map — the same accept/reject decisions, so
// identical RNG consumption, without n map allocations. Edges go to the
// builder in draw order: Build's rows depend on the edge set alone.
func followerGraph(followerCounts []int, rng *mathrand.Rand) *socialgraph.Graph {
	n := len(followerCounts)
	b := socialgraph.NewBuilder(socialgraph.Directed, n)
	total := 0
	for _, want := range followerCounts {
		if want > n-1 {
			want = n - 1
		}
		total += want
	}
	b.Grow(total)
	seen := make([]int32, n) // seen[f] == u+1 ⟺ f already drawn for user u
	for u := 0; u < n; u++ {
		want := followerCounts[u]
		if want > n-1 {
			want = n - 1
		}
		stamp := int32(u) + 1
		for i := 0; i < want; {
			f := rng.Intn(n)
			if f == u || seen[f] == stamp {
				continue
			}
			seen[f] = stamp
			b.AddEdge(socialgraph.UserID(u), socialgraph.UserID(f)) // f follows u
			i++
		}
	}
	return b.Build()
}

// lognormalInts draws n integers from a log-normal distribution with the
// given mean, clamped to [lo, hi].
func lognormalInts(rng *mathrand.Rand, n int, mean, sigma float64, lo, hi int) []int {
	mu := math.Log(mean) - float64(sigma*sigma/2) // rounded: no fused multiply-subtract
	out := make([]int, n)
	for i := range out {
		v := int(math.Round(math.Exp(mu + float64(sigma*rng.NormFloat64())))) // rounded: no fused multiply-add
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	return out
}

// sampleHomeMinute draws a user's home minute-of-day from a two-peak
// mixture: midday (12:30) and evening (20:30), the diurnal shape observed
// in OSN measurement studies the paper cites.
func sampleHomeMinute(rng *mathrand.Rand) int {
	var mean, sigma float64
	if rng.Float64() < 0.4 {
		mean, sigma = 12.5*60, 120
	} else {
		mean, sigma = 20.5*60, 150
	}
	return wrapMinute(int(mean + float64(sigma*rng.NormFloat64()))) // rounded: no fused multiply-add
}

// sampleMinute draws an activity minute-of-day around the creator's home
// minute, with a uniform background fraction (cfg.UniformFraction) and
// spread cfg.DiurnalSigmaMinutes.
func sampleMinute(rng *mathrand.Rand, home int, uniformFraction, sigma float64) int {
	if rng.Float64() < uniformFraction {
		return rng.Intn(24 * 60)
	}
	return wrapMinute(home + int(sigma*rng.NormFloat64()))
}

func wrapMinute(m int) int {
	const day = 24 * 60
	m %= day
	if m < 0 {
		m += day
	}
	return m
}

// zipfGridBuckets is the quantile-grid resolution of a zipfTable. A power
// of two, so j/zipfGridBuckets is exact in float64 and the grid-bucket
// bounds below hold with equality-safe rounding.
const zipfGridBuckets = 64

// zipfTable memoizes one list length: the cumulative weights and a quantile
// start grid. grid[j] is SearchFloat64s(cum, (j/zipfGridBuckets)·total) —
// for any draw u in bucket j (j = ⌊u·zipfGridBuckets⌋), the searched rank
// lies in [grid[j], grid[j+1]], because u ↦ u·total and x ↦ search index
// are both monotone under IEEE rounding. The grid shrinks the per-draw
// binary search from log₂(n) probes over the whole array to a couple of
// probes inside one bucket.
type zipfTable struct {
	cum  []float64
	grid [zipfGridBuckets + 1]int32
}

// zipfSampler draws ranks in [0, n) with probability ∝ 1/(rank+1)^s,
// memoizing one table per list length with a one-entry last-length cache in
// front: the synthesizer draws every activity of a user against the same
// list length, so the map is touched at most once per user rather than once
// per draw.
type zipfSampler struct {
	s      float64
	tables map[int]*zipfTable
	lastN  int
	last   *zipfTable
}

func newZipfSampler(s float64) *zipfSampler {
	return &zipfSampler{s: s, tables: make(map[int]*zipfTable)}
}

func (z *zipfSampler) tableFor(n int) *zipfTable {
	t, ok := z.tables[n]
	if ok {
		return t
	}
	t = &zipfTable{cum: make([]float64, n)}
	acc := 0.0
	for r := 0; r < n; r++ {
		acc += math.Pow(float64(r+1), -z.s)
		t.cum[r] = acc
	}
	total := t.cum[n-1]
	for j := 0; j <= zipfGridBuckets; j++ {
		q := float64(j) / zipfGridBuckets
		//dosn:boundschecked search index is ≤ n ≤ the graph's user count, far under int32
		t.grid[j] = int32(sort.SearchFloat64s(t.cum, q*total))
	}
	z.tables[n] = t
	return t
}

// zipfDraw makes a rank's draw for a list of n under skew s: none for
// n <= 1, the rank itself (an Intn) when s <= 0, else the uniform the Zipf
// search inverts. zipfSampler.rank turns it into the rank.
func zipfDraw(rng *mathrand.Rand, s float64, n int) float64 {
	switch {
	case n <= 1:
		return 0
	case s <= 0:
		return float64(rng.Intn(n))
	}
	return rng.Float64()
}

// rank returns the rank zipfDraw's draw u selects in a list of n. Under
// skew it is exactly the index SearchFloat64s(cum, u·total) would return —
// the grid only narrows the search range, never changes its result — so
// every receiver choice, and with it every golden dataset, is bit-identical
// to the ungridded search this replaces.
func (z *zipfSampler) rank(u float64, n int) int {
	if n <= 1 {
		return 0
	}
	if z.s <= 0 {
		return int(u)
	}
	t := z.last
	if n != z.lastN {
		t = z.tableFor(n)
		z.last, z.lastN = t, n
	}
	x := u * t.cum[n-1]
	j := int(u * zipfGridBuckets)
	lo, hi := int(t.grid[j]), int(t.grid[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= n {
		lo = n - 1
	}
	return lo
}

// MustSynthesize is Synthesize for tests with known-good, hard-coded
// configs; it panics on config errors. Library code, commands and examples
// must route through the error-returning Synthesize/SynthesizeCalibrated so
// a bad config fails with a message instead of a panic — no non-test code
// in this module calls MustSynthesize.
func MustSynthesize(cfg SynthConfig) *Dataset {
	d, err := Synthesize(cfg)
	if err != nil {
		panic(fmt.Sprintf("trace: MustSynthesize(%+v): %v", cfg, err))
	}
	return d
}

// PaperMinActivity is the paper's activity filter: only users with at least
// this many created activities enter the analysis.
const PaperMinActivity = 10

// SynthesizeCalibrated builds the named calibrated dataset ("facebook" or
// "twitter") with the given seed (used literally, including 0) and applies
// the paper's activity filter: minActivity 0 means PaperMinActivity and a
// negative value disables filtering. This is the single construction path
// shared by the public facade, the dataset generator and the matrix harness.
func SynthesizeCalibrated(name string, users int, seed int64, minActivity int) (*Dataset, error) {
	var cfg SynthConfig
	switch name {
	case "facebook":
		cfg = DefaultFacebookConfig(users)
	case "twitter":
		cfg = DefaultTwitterConfig(users)
	default:
		return nil, fmt.Errorf("trace: unknown calibrated dataset %q (facebook|twitter)", name)
	}
	cfg.Seed = seed
	if minActivity == 0 {
		minActivity = PaperMinActivity
	}
	d, err := synthesize(cfg, minActivity)
	if err != nil {
		return nil, fmt.Errorf("trace: synthesize %s: %w", name, err)
	}
	return d, nil
}
