// Package metrics implements the paper's efficiency metrics for
// decentralized OSNs (§II-C): availability, availability-on-demand-time,
// availability-on-demand-activity, update-propagation delay over the replica
// time-connectivity graph, and the replica-load fairness measure implied by
// the storage requirements of §II-B1.
package metrics

import (
	"math"
	"sort"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

// orSchedule unions user u's schedule into dst; an ID outside bitmaps is a
// user who is never online.
func orSchedule(dst *interval.Bitmap, bitmaps []interval.Bitmap, u socialgraph.UserID) {
	if u >= 0 && int(u) < len(bitmaps) {
		dst.OrWith(&bitmaps[u])
	}
}

// AvailabilitySet returns the set of minutes during which the profile of
// owner is reachable: the union of the owner's own online time (the owner
// always stores his profile — replication degree 0 in the paper means "only
// the user stores his profile") and the online times of all replicas.
// bitmaps holds every user's dense schedule, indexed by UserID.
func AvailabilitySet(owner socialgraph.UserID, replicas []socialgraph.UserID, bitmaps []interval.Bitmap) interval.Bitmap {
	var avail interval.Bitmap
	orSchedule(&avail, bitmaps, owner)
	for _, r := range replicas {
		orSchedule(&avail, bitmaps, r)
	}
	return avail
}

// Availability returns the fraction of the day the profile is reachable
// (§II-C1). With every friend as a replica it is the best availability any
// placement can reach for the owner (§III-A notes this bound).
func Availability(owner socialgraph.UserID, replicas []socialgraph.UserID, bitmaps []interval.Bitmap) float64 {
	avail := AvailabilitySet(owner, replicas, bitmaps)
	return avail.Fraction()
}

// AvailabilityOnDemandTime returns the fraction of the union of the friends'
// online times during which the profile is reachable (§II-C2). ok is false
// when the friends are never online (the metric is undefined).
func AvailabilityOnDemandTime(owner socialgraph.UserID, replicas, friends []socialgraph.UserID, bitmaps []interval.Bitmap) (v float64, ok bool) {
	var demand interval.Bitmap
	for _, f := range friends {
		orSchedule(&demand, bitmaps, f)
	}
	if demand.IsEmpty() {
		return 0, false
	}
	avail := AvailabilitySet(owner, replicas, bitmaps)
	return float64(avail.OverlapMinutes(&demand)) / float64(demand.Minutes()), true
}

// AvailabilityOnDemandMinutes returns the fraction of activities on the
// owner's profile whose minute-of-day falls within the availability set
// (§II-C2, second variant), given the activities' pre-extracted
// minutes-of-day (e.g. straight off a columnar dataset's timestamp column).
// Both "expected" activity (inside the inferred online times) and
// "unexpected" activity count, per §IV-B. ok is false when the profile
// received no activity. It is the one-shot form; the sweep's degree loop
// maintains the same value incrementally with an AoDTracker.
func AvailabilityOnDemandMinutes(avail *interval.Bitmap, minutes []int) (v float64, ok bool) {
	if len(minutes) == 0 {
		return 0, false
	}
	hit := 0
	for _, m := range minutes {
		if avail.Contains(m) {
			hit++
		}
	}
	return float64(hit) / float64(len(minutes)), true
}

// AoDTracker maintains the availability-on-demand-activity metric
// incrementally over a growing availability set. The sweep's degree loop
// previously rescanned every activity minute against the availability bitmap
// once per (policy, degree); the tracker digests the minutes once per user
// (InitUser) into a distinct-minute bitmap plus per-minute multiplicities,
// counts the initially covered activities once per policy (Reset), and
// thereafter folds in only newly covered *activity* minutes (Advance): each
// step is one 23-word pass of (avail \ covered) ∩ activity, enumerating hit
// bits only — across a whole degree sweep that is at most one bit per
// distinct activity minute. Value returns exactly
// AvailabilityOnDemandMinutes of the tracked set: the hit count is the same
// integer, so the division is the same float.
//
// The zero value is ready; scratch is reused across users.
type AoDTracker struct {
	total    int                         // number of activities, duplicates included
	act      interval.Bitmap             // distinct activity minutes
	weight   [interval.DayMinutes]uint32 // multiplicity per minute-of-day
	distinct []int                       // minutes with weight > 0, for O(distinct) clearing
	covered  interval.Bitmap             // the availability set accounted for in hits
	newMins  []int                       // scratch: newly covered activity minutes
	hits     int                         // activities whose minute is in covered
}

// InitUser digests one user's activity minutes. minutes itself is not
// modified (callers reuse it in original order). Out-of-range values are
// reduced modulo the day, matching the Contains probes of the rescan path.
func (t *AoDTracker) InitUser(minutes []int) {
	for _, m := range t.distinct {
		t.weight[m] = 0
	}
	t.distinct = t.distinct[:0]
	t.act.Clear()
	t.total = len(minutes)
	for _, m := range minutes {
		m %= interval.DayMinutes
		if m < 0 {
			m += interval.DayMinutes
		}
		if t.weight[m] == 0 {
			t.distinct = append(t.distinct, m)
			t.act.AddInterval(interval.Interval{Start: m, End: m + 1})
		}
		t.weight[m]++
	}
}

// Reset starts a new selection from the base availability set (the owner's
// own schedule at degree 0), once per policy.
//
//dosn:hotpath
func (t *AoDTracker) Reset(avail *interval.Bitmap) {
	t.covered.Clear()
	t.hits = 0
	t.Advance(avail)
}

// Advance folds the newly covered minutes of avail — which must be a
// superset of the set passed to the last Reset/Advance, exactly the degree
// loop's growing union — into the hit count. Cost is one word-level pass
// plus one weight lookup per newly covered activity minute.
//
//dosn:hotpath
func (t *AoDTracker) Advance(avail *interval.Bitmap) {
	t.newMins = avail.AppendNewOverlapMinutes(&t.covered, &t.act, t.newMins[:0])
	for _, m := range t.newMins {
		t.hits += int(t.weight[m])
	}
	t.covered.CopyFrom(avail)
}

// Value returns the tracked metric: the fraction of activities whose
// minute-of-day the availability set covers. ok is false when the profile
// received no activity, exactly as AvailabilityOnDemandMinutes reports.
//
//dosn:hotpath
func (t *AoDTracker) Value() (v float64, ok bool) {
	if t.total == 0 {
		return 0, false
	}
	return float64(t.hits) / float64(t.total), true
}

// DelayResult reports the update-propagation-delay metric (§II-C3).
type DelayResult struct {
	// Hours is the worst-case update propagation delay: the weighted
	// diameter of the replica time-connectivity graph, where an edge's
	// weight is the worst-case wait until the two endpoints are next online
	// together. For two replicas sharing a single overlap window of d hours
	// this is exactly the paper's 24−d expression.
	Hours float64
	// Connected reports whether every pair of replica nodes can exchange
	// updates through the graph. In ConRep placements it is always true; in
	// UnconRep placements unreachable pairs are excluded from Hours (they
	// would use external storage).
	Connected bool
	// Nodes is the number of profile holders considered (owner + replicas).
	Nodes int
}

// UpdatePropagationDelay computes the paper's worst-case update-propagation
// delay for a profile: nodes are the owner plus the replicas; edges connect
// time-overlapping nodes with weight equal to the maximum circular gap
// between their common online minutes; updates follow shortest paths; and
// the metric is the largest shortest-path weight over all node pairs.
//
// It is the one-shot form over DelayCalc; sweep loops that evaluate many
// prefixes of one selection should hold a DelayCalc and call Init once and
// Prefix per degree.
func UpdatePropagationDelay(owner socialgraph.UserID, replicas []socialgraph.UserID, bitmaps []interval.Bitmap) DelayResult {
	var dc DelayCalc
	dc.Init(owner, replicas, bitmaps)
	return dc.Prefix(len(replicas))
}

// delayInf marks an unreachable node pair. It is far above any finite path
// (at most 1,439 minutes an edge) and small enough that the sum of two never
// overflows, so the relax loops add and compare without testing for it: a
// sum with an unreachable leg is never below a stored distance.
const delayInf = 1 << 40

// weightUnknown marks a slot pair whose edge weight is not yet computed.
const weightUnknown = -1

// DelayCalc computes update-propagation delays over dense schedules with
// reusable scratch. Init loads an owner and a selection; Prefix(k) then
// answers the metric for the owner plus the first k replicas by growing an
// exact all-pairs-shortest-path solution one node at a time (O(n²) per added
// node: one edge weight per old node, then a relax-through-the-new-node
// pass). A sweep that asks for every prefix of an 11-node selection
// therefore does O(n³) integer work total, not O(n⁴) as the per-degree
// Floyd–Warshall recomputation it replaces — with answers equal bit for bit,
// since both compute exact shortest paths.
//
// Edge weights (one word-wise AND plus a cyclic gap scan per pair, read
// straight from the schedule arena) are memoized per owner, keyed by node
// slot: every distinct user ID seen since Init gets one, the owner slot 0.
// Reselect loads another selection for the same owner and schedules and
// keeps the memo, so a sweep that evaluates several policies' selections of
// one owner computes each distinct pair's weight once. The zero value is
// ready; scratch grows to the largest owner seen and is reused thereafter.
type DelayCalc struct {
	bitmaps []interval.Bitmap    // schedules of the current owner's Init
	ids     []socialgraph.UserID // slot → user ID; slot 0 is the owner
	weight  []int64              // slot-pair edge weights, row-major, stride wst
	wst     int                  // row stride of weight
	node    []int                // node position → slot: owner, then the selection
	dist    []int64              // row-major APSP over the first solved nodes
	stride  int                  // row stride of dist (max selection size seen)
	solved  int                  // APSP is exact for the first solved nodes
	worst   int64                // largest finite distance among the solved nodes
	conn    bool                 // no solved pair is unreachable
}

// Init prepares the calculator for owner over bitmaps (indexed by UserID;
// out-of-range IDs are treated as never online), forgets every memoized
// weight, and loads the selection {owner} ∪ seq.
func (dc *DelayCalc) Init(owner socialgraph.UserID, seq []socialgraph.UserID, bitmaps []interval.Bitmap) {
	dc.bitmaps = bitmaps
	dc.ids = dc.ids[:0]
	dc.slot(owner)
	dc.Reselect(seq)
}

// Reselect loads the selection {owner} ∪ seq for the owner and schedules of
// the last Init, keeping the weights memoized since then. It must follow an
// Init.
func (dc *DelayCalc) Reselect(seq []socialgraph.UserID) {
	n := len(seq) + 1
	if dc.stride < n {
		dc.stride = n
		dc.dist = make([]int64, n*n)
	}
	dc.node = append(dc.node[:0], 0)
	for _, r := range seq {
		dc.node = append(dc.node, dc.slot(r))
	}
	dc.solved = 1
	dc.dist[0] = 0
}

// slot returns u's slot, opening one on first sight. A new slot's weight row
// and column are marked unknown; a slot's row is never read before that, so
// this is the whole per-owner reset: O(slots²) per owner, no allocation once
// the memo has grown to the largest owner.
func (dc *DelayCalc) slot(u socialgraph.UserID) int {
	for s, id := range dc.ids {
		if id == u {
			return s
		}
	}
	s := len(dc.ids)
	dc.ids = append(dc.ids, u)
	if s >= dc.wst {
		st := max(2*dc.wst, 16)
		grown := make([]int64, st*st)
		for i := 0; i < s; i++ {
			copy(grown[i*st:i*st+s], dc.weight[i*dc.wst:i*dc.wst+s])
		}
		dc.weight, dc.wst = grown, st
	}
	for i := 0; i <= s; i++ {
		dc.weight[s*dc.wst+i] = weightUnknown
		dc.weight[i*dc.wst+s] = weightUnknown
	}
	return s
}

// edge returns the weight between slots a and b: the worst-case wait until
// both are next online together, delayInf when they never are.
func (dc *DelayCalc) edge(a, b int) int64 {
	w := dc.weight[a*dc.wst+b]
	if w != weightUnknown {
		return w
	}
	w = delayInf
	u, v := dc.ids[a], dc.ids[b]
	if u >= 0 && int(u) < len(dc.bitmaps) && v >= 0 && int(v) < len(dc.bitmaps) {
		if gap, ok := dc.bitmaps[u].MaxGapWith(&dc.bitmaps[v]); ok {
			w = int64(gap)
		}
	}
	dc.weight[a*dc.wst+b], dc.weight[b*dc.wst+a] = w, w
	return w
}

// addNode extends the exact APSP solution from m to m+1 nodes. Any path to
// the new node m decomposes into a shortest path within the old node set
// plus one final edge, and any improved old-pair path must pass through m,
// so two O(m²) passes keep the solution exact. The second pass visits every
// pair of the grown set, so it also records the diameter and connectivity.
func (dc *DelayCalc) addNode() {
	m, st := dc.solved, dc.stride
	sm := dc.node[m]
	// Row m holds the new node's edge weights until the first pass, which
	// writes only column m, is done; it then becomes the row of distances.
	row := dc.dist[m*st : m*st+m+1]
	for j := 0; j < m; j++ {
		row[j] = dc.edge(dc.node[j], sm)
	}
	for i := 0; i < m; i++ {
		di := dc.dist[i*st : i*st+m]
		best := row[i] // the direct edge (dist[i][i] = 0)
		for j, dij := range di {
			if c := dij + row[j]; c < best {
				best = c
			}
		}
		dc.dist[i*st+m] = best
	}
	for i := 0; i < m; i++ {
		row[i] = dc.dist[i*st+m]
	}
	row[m] = 0
	worst, conn := int64(0), true
	for i := 0; i < m; i++ {
		dim := row[i]
		di := dc.dist[i*st : i*st+m]
		for j := i + 1; j < m; j++ {
			d := di[j]
			if c := dim + row[j]; c < d {
				d = c
				di[j], dc.dist[j*st+i] = d, d
			}
			if d >= delayInf {
				conn = false
			} else if d > worst {
				worst = d
			}
		}
		if dim >= delayInf {
			conn = false
		} else if dim > worst {
			worst = dim
		}
	}
	dc.worst, dc.conn = worst, conn
	dc.solved = m + 1
}

// Prefix returns the update-propagation-delay metric for the owner plus the
// first k replicas of the loaded selection. It is bit-identical to calling
// UpdatePropagationDelay on that prefix. Nondecreasing k across calls (the
// degree sweep's access pattern) reuses all prior work; a smaller k restarts
// the incremental solution.
func (dc *DelayCalc) Prefix(k int) DelayResult {
	n := min(k+1, len(dc.node))
	res := DelayResult{Connected: true, Nodes: n}
	if n < 2 {
		return res
	}
	if n < dc.solved { // shrinking prefix: restart the incremental build
		dc.solved = 1
	}
	for dc.solved < n {
		dc.addNode()
	}
	res.Hours = float64(dc.worst) / 60
	res.Connected = dc.conn
	return res
}

// AddHostLoad counts one owner's replica group into a per-host load
// vector: load[h] is how many foreign profiles user h hosts, the quantity
// behind the fairness/storage-balance requirement of §II-B1. Replicas
// outside the vector are ignored. Callers fold every owner's selection into
// one vector (or one per worker, summed), never into a per-owner map.
func AddHostLoad(load []int, replicas []socialgraph.UserID) {
	for _, r := range replicas {
		if r >= 0 && int(r) < len(load) {
			load[r]++
		}
	}
}

// Gini returns the Gini coefficient of a per-node load vector in [0, 1): 0
// is a perfectly even spread, values toward 1 mean a few nodes carry almost
// all of the load. It complements LoadImbalance's coefficient of variation
// with a bounded, distribution-shape measure — the per-node load-imbalance
// metric the DHT architecture comparison reports (socially-aware placement
// trades routing locality for storage skew; this is the number that shows
// it). An empty or all-zero vector has Gini 0.
func Gini(load []int) float64 {
	if len(load) == 0 {
		return 0
	}
	sorted := make([]int, len(load))
	copy(sorted, load)
	sort.Ints(sorted)
	var total, weighted float64
	for i, l := range sorted {
		total += float64(l)
		weighted += float64(float64(i+1) * float64(l)) // rounded: no fused multiply-add
	}
	if total == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - float64((n+1)*total)) / (n * total) // rounded: no fused multiply-subtract
}

// RoutingStats summarizes the hop counts of a batch of DHT lookups — the
// routing-cost metric the friend-replica architecture trivially wins (every
// lookup is one social hop) and a DHT must pay O(log n) for.
type RoutingStats struct {
	// Lookups is the number of lookups summarized.
	Lookups int
	// MeanHops and MaxHops describe the hop-count distribution.
	MeanHops float64
	MaxHops  int
}

// SummarizeHops aggregates per-lookup hop counts.
func SummarizeHops(hops []int) RoutingStats {
	s := RoutingStats{Lookups: len(hops)}
	if len(hops) == 0 {
		return s
	}
	total := 0
	for _, h := range hops {
		total += h
		if h > s.MaxHops {
			s.MaxHops = h
		}
	}
	s.MeanHops = float64(total) / float64(len(hops))
	return s
}

// LoadImbalance summarizes a per-host load vector (AddHostLoad) as (mean,
// max, coefficient of variation). A perfectly fair placement has cv → 0.
func LoadImbalance(load []int) (mean, max float64, cv float64) {
	if len(load) == 0 {
		return 0, 0, 0
	}
	sum := 0
	maxV := 0
	for _, l := range load {
		sum += l
		if l > maxV {
			maxV = l
		}
	}
	mean = float64(sum) / float64(len(load))
	var ss float64
	for _, l := range load {
		d := float64(l) - mean
		ss += float64(d * d) // rounded: no fused multiply-add
	}
	std := math.Sqrt(ss / float64(len(load)))
	if mean > 0 {
		cv = std / mean
	}
	return mean, float64(maxV), cv
}
