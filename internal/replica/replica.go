// Package replica implements the paper's profile-replica selection policies
// (§III): MaxAv (greedy set cover over online minutes), MostActive (top-k
// friends by interaction count) and Random, each in the connected-replica
// (ConRep) and unconnected-replica (UnconRep) variants.
//
// In ConRep mode every chosen replica must overlap in time with the owner or
// with an already-chosen replica, so that updates can propagate through the
// friend set without third-party storage — the configuration the paper argues
// a privacy-conscious decentralized OSN must use.
//
// Policies compute on dense schedules only: Input.Bitmaps is the arena of an
// onlinetime.Table (one day-bitmap row per user), interaction counts arrive
// positionally aligned with the candidate list, and the activity-demand
// universe is a bitmap. Every overlap question is a word-wise operation.
//
// Ownership: a selection Select returns is freshly allocated and belongs to
// the caller, who may keep it. The working memory a Select call needs —
// the tracker's columns, MaxAv's size and bound columns, MostActive's
// ranking — belongs to the Placer that prepared the Input, so a warmed
// Select allocates only its answer. Inputs from one Placer share that
// memory and must not be Selected concurrently; an Input built as a literal
// carries none, and its Select works on fresh memory.
package replica

import (
	"cmp"
	"math/rand"
	"slices"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

// Mode selects between connected and unconnected replica placement.
type Mode int

const (
	// ConRep requires each replica to overlap in time with the owner or an
	// already-chosen replica (paper §II-A).
	ConRep Mode = iota + 1
	// UnconRep places replicas regardless of time connectivity; replicas
	// would exchange updates through third-party storage (CDN/DHT).
	UnconRep
)

func (m Mode) String() string {
	switch m {
	case ConRep:
		return "ConRep"
	case UnconRep:
		return "UnconRep"
	default:
		return "Mode(?)"
	}
}

// Input carries everything a policy needs to place replicas for one user.
// Outside this package and the tests an Input comes from a Placer, which
// prepares exactly the ingredients the policies' Traits declare.
type Input struct {
	// Owner is the profile owner.
	Owner socialgraph.UserID
	// Candidates are the owner's friends (Facebook) or followers (Twitter):
	// the trusted nodes eligible to host a replica.
	Candidates []socialgraph.UserID
	// Bitmaps holds the dense online-time schedule of every user, indexed by
	// UserID (the arena rows of an onlinetime.Table). Sweep engines build it
	// once per (dataset, model, repetition) and share it read-only across
	// workers. An ID outside the slice is a user who is never online.
	Bitmaps []interval.Bitmap
	// CandidateCounts gives, per candidate position, the number of
	// activities Candidates[i] created on the owner's profile. Only
	// MostActive reads it; it must then have len(Candidates) entries.
	CandidateCounts []int
	// Demand is the set of minutes during which activity was observed on
	// the owner's profile in the past. Only MaxAv with
	// ObjectiveOnDemandActivity reads it (§III-A: the set-cover universe is
	// "the union of the activity times of all friends observed during a
	// pre-defined time in the past"); nil means not prepared, an empty
	// bitmap means no observed activity.
	Demand *interval.Bitmap
	// Mode selects ConRep or UnconRep placement.
	Mode Mode
	// Budget is the maximum replication degree (number of replicas).
	Budget int

	// work is the preparing Placer's work area (nil for a literal).
	work *selectWork
}

// offline is the schedule of an ID outside Input.Bitmaps: never online.
var offline interval.Bitmap

// bitmap returns the dense schedule of u (the empty schedule when u is out
// of range).
func (in *Input) bitmap(u socialgraph.UserID) *interval.Bitmap {
	if u < 0 || int(u) >= len(in.Bitmaps) {
		return &offline
	}
	return &in.Bitmaps[u]
}

// Connected reports whether candidate c is time-connected to the owner or to
// any already chosen replica: pairwise word-wise AND scans over the dense
// schedules. Exported so policy implementations outside this package (the
// DHT placements in internal/dht) can honor ConRep mode with the identical
// rule.
func (in *Input) Connected(c socialgraph.UserID, chosen []socialgraph.UserID) bool {
	cb := in.bitmap(c)
	if cb.Intersects(in.bitmap(in.Owner)) {
		return true
	}
	for _, r := range chosen {
		if cb.Intersects(in.bitmap(r)) {
			return true
		}
	}
	return false
}

// selectWork is the working memory of Select calls: the tracker's columns,
// MaxAv's size and bound columns and MostActive's ranking. A Placer owns one
// (see the package doc for the ownership rule). Every Select resizes and
// clears the columns it reads, so nothing carries over between calls.
type selectWork struct {
	cand   []*interval.Bitmap
	taken  []bool
	conn   []bool
	pool   []int
	size   []int
	bound  []int
	ranked []int
}

// workArea returns the Input's work area, or a fresh one for a literal Input.
func (in *Input) workArea() *selectWork {
	if in.work == nil {
		return new(selectWork)
	}
	return in.work
}

// resize returns s resliced to n cleared elements, allocating only when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tracker is one Select call's view of the candidate list, per candidate
// position: its schedule (a pointer into the arena), whether it is taken,
// and under ConRep whether it is time-connected to the owner or to a pick.
// Connectivity is maintained incrementally: it starts as "overlaps the
// owner", and a pick can only switch candidates from unconnected to
// connected, so one Intersects against the pick per unconnected candidate
// replaces Input.Connected's rescan of the whole chosen list — with the
// identical answer at every probe. Its columns live in the work area.
type tracker struct {
	ids   []socialgraph.UserID
	cand  []*interval.Bitmap
	taken []bool
	conn  []bool // nil under UnconRep, where every candidate is connected
	pool  []int  // openPool's result, reused at every step
}

// newTracker starts a tracker over in's candidates in w: nothing taken,
// ConRep connectivity seeded from the owner.
func newTracker(in *Input, w *selectWork) tracker {
	n := len(in.Candidates)
	w.cand = resize(w.cand, n)
	w.taken = resize(w.taken, n)
	w.pool = resize(w.pool, n)
	t := tracker{ids: in.Candidates, cand: w.cand, taken: w.taken, pool: w.pool[:0]}
	for i, c := range in.Candidates {
		t.cand[i] = in.bitmap(c)
	}
	if in.Mode == ConRep {
		owner := in.bitmap(in.Owner)
		w.conn = resize(w.conn, n)
		t.conn = w.conn
		for i, b := range t.cand {
			t.conn[i] = b.Intersects(owner)
		}
	}
	return t
}

// open reports whether candidate position i is not taken and permitted by
// the mode.
func (t *tracker) open(i int) bool {
	return !t.taken[i] && (t.conn == nil || t.conn[i])
}

// take records the pick of position i. Taken is marked by ID, so a
// duplicate candidate entry leaves the pool together with its twin.
func (t *tracker) take(i int) {
	for j, c := range t.ids {
		if c == t.ids[i] {
			t.taken[j] = true
		}
	}
	if t.conn != nil {
		for j, ok := range t.conn {
			if !ok && t.cand[j].Intersects(t.cand[i]) {
				t.conn[j] = true
			}
		}
	}
}

// openPool returns the open candidate positions in candidate order, so a
// uniform draw over it picks what a draw over the open candidates would.
// The pool's capacity is the candidate count, so it never reallocates.
func (t *tracker) openPool() []int {
	t.pool = t.pool[:0]
	for i := range t.ids {
		if t.open(i) {
			t.pool = append(t.pool, i)
		}
	}
	return t.pool
}

// Policy chooses replica locations for a user's profile.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the chosen replica hosts, at most in.Budget of them.
	// The result may be shorter than the budget when the policy runs out of
	// eligible or useful candidates (the paper notes this for ConRep).
	Select(in Input, rng *rand.Rand) []socialgraph.UserID
	// Traits declares the Input ingredients Select reads.
	Traits() Traits
}

// Traits declares which Input ingredients a policy actually consumes, so a
// sweep engine can skip preparing the ones it will ignore (a deterministic
// policy is handed no generator; only MostActive reads the interaction
// counts). Results never depend on traits — they only gate work whose output
// the policy would discard.
type Traits struct {
	// UsesRNG is false for fully deterministic policies; Select may then
	// receive a nil rng.
	UsesRNG bool
	// UsesInteractions reports whether Input.CandidateCounts is read.
	UsesInteractions bool
	// UsesDemand reports whether Input.Demand is read.
	UsesDemand bool
}

// Compile-time interface checks.
var (
	_ Policy = MaxAv{}
	_ Policy = MostActive{}
	_ Policy = Random{}
)

// Objective selects the set-cover universe MaxAv optimizes (§III-A).
type Objective int

const (
	// ObjectiveAvailability covers the friends' online minutes: it
	// maximizes availability and, equivalently, availability-on-demand-time
	// (the paper notes both use the same universe ⋃_f OT_f).
	ObjectiveAvailability Objective = iota
	// ObjectiveOnDemandActivity covers the minutes of past activity on the
	// owner's profile (Input.Demand): it maximizes
	// availability-on-demand-activity.
	ObjectiveOnDemandActivity
)

func (o Objective) String() string {
	if o == ObjectiveOnDemandActivity {
		return "on-demand-activity"
	}
	return "availability"
}

// MaxAv greedily maximizes profile availability: at each step it picks the
// eligible candidate contributing the most not-yet-covered universe minutes,
// stopping early when coverage stops improving (§III-A). This is the greedy
// approximation to the NP-hard set-cover formulation in the paper. The zero
// value optimizes plain availability; set Objective to cover the past
// activity minutes instead.
type MaxAv struct {
	// Objective selects the set-cover universe (default availability).
	Objective Objective
}

// Name implements Policy.
func (m MaxAv) Name() string {
	if m.Objective == ObjectiveOnDemandActivity {
		return "MaxAv(activity)"
	}
	return "MaxAv"
}

// Traits implements Policy: MaxAv is deterministic and ignores the
// interaction counts; only the activity objective reads Demand.
func (m MaxAv) Traits() Traits {
	return Traits{UsesDemand: m.Objective == ObjectiveOnDemandActivity}
}

// Select implements Policy. The greedy loop runs entirely on the dense
// bitmap representation: the covered set is one scratch bitmap, marginal
// gains are fused popcounts (|OT_c \ covered|, restricted to the demand
// universe for the activity objective), and each round's union is an
// in-place word-wise OR.
func (m MaxAv) Select(in Input, _ *rand.Rand) []socialgraph.UserID {
	chosen := make([]socialgraph.UserID, 0, in.Budget)
	restricted := m.Objective == ObjectiveOnDemandActivity
	if restricted && in.Demand == nil {
		// An unprepared universe is not an empty one: covering nothing would
		// silently place no replica at all.
		panic("replica: MaxAv(activity) needs Input.Demand; build the Input with a replica.Placer")
	}
	demand := in.Demand
	w := in.workArea()
	// A duplicate candidate entry leaves with its twin (tracker.take); it
	// could not be picked anyway, since its marginal gain is 0 once the twin
	// is covered and gains must exceed 0.
	t := newTracker(&in, w)

	// Sizes are cached so each greedy probe needs a single overlap popcount
	// (gain = size − overlap).
	w.size = resize(w.size, len(t.cand))
	size := w.size
	for i, b := range t.cand {
		size[i] = b.Minutes()
	}

	var covered interval.Bitmap // the owner always hosts his profile
	covered.CopyFrom(in.bitmap(in.Owner))

	// bound[i] is an upper bound on candidate i's marginal gain: initially
	// its schedule size, thereafter its gain the last time it was evaluated.
	// covered only grows, so gains are non-increasing across rounds
	// (coverage is submodular) and the bound stays valid even for rounds a
	// candidate sat out as unconnected. A candidate with bound < bestGain
	// cannot win the round, and one with bound 0 can never be picked at all
	// (selection requires gain > 0), so both skips leave the chosen
	// sequence bit-identical to the full rescan.
	w.bound = resize(w.bound, len(size))
	bound := w.bound
	copy(bound, size)

	for len(chosen) < in.Budget {
		bestIdx := -1
		bestGain := 0
		bestOverlap := 0
		for i, b := range t.cand {
			if !t.open(i) || bound[i] == 0 || bound[i] < bestGain {
				continue
			}
			overlap := covered.OverlapMinutes(b)
			var gain int
			if restricted {
				// Contribution inside the demand universe only.
				gain = b.MinutesInNotIn(demand, &covered)
			} else {
				gain = size[i] - overlap // |OT_c \ covered|
			}
			bound[i] = gain
			// Maximize marginal coverage; the paper words the tie-break as
			// "least overlap with the current covered set"; candidate ID
			// breaks remaining ties deterministically.
			if gain > bestGain || (gain == bestGain && gain > 0 && overlap < bestOverlap) {
				bestIdx, bestGain, bestOverlap = i, gain, overlap
			}
		}
		if bestIdx < 0 || bestGain == 0 {
			break // no improvement possible: stop, as the paper prescribes
		}
		chosen = append(chosen, in.Candidates[bestIdx])
		covered.OrWith(t.cand[bestIdx])
		t.take(bestIdx)
	}
	return chosen
}

// MostActive picks the top-k most active friends — those who created the
// most activity on the owner's profile — filling up with random friends when
// fewer than k have non-zero activity (§III-B).
type MostActive struct{}

// Name implements Policy.
func (MostActive) Name() string { return "MostActive" }

// Traits implements Policy.
func (MostActive) Traits() Traits { return Traits{UsesRNG: true, UsesInteractions: true} }

// Select implements Policy. Ranking runs over candidate positions, so the
// positional CandidateCounts column needs no ID lookups.
func (MostActive) Select(in Input, rng *rand.Rand) []socialgraph.UserID {
	w := in.workArea()
	w.ranked = resize(w.ranked, len(in.Candidates))
	ranked := w.ranked
	for i := range ranked {
		ranked[i] = i
	}
	counts, ids := in.CandidateCounts, in.Candidates
	slices.SortStableFunc(ranked, func(a, b int) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(ids[a], ids[b])
	})

	t := newTracker(&in, w)
	chosen := make([]socialgraph.UserID, 0, in.Budget)
	for len(chosen) < in.Budget {
		// Highest-ranked open candidate with non-zero activity.
		best := -1
		for _, i := range ranked {
			if in.CandidateCounts[i] != 0 && t.open(i) {
				best = i
				break
			}
		}
		if best < 0 {
			// Out of active candidates: fall back to random friends, as the
			// paper prescribes when there are not enough active ones.
			pool := t.openPool()
			if len(pool) == 0 {
				break
			}
			best = pool[rng.Intn(len(pool))]
		}
		chosen = append(chosen, in.Candidates[best])
		t.take(best)
	}
	return chosen
}

// Random picks uniformly random friends (§III-C), restricted to
// time-connected candidates in ConRep mode.
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "Random" }

// Traits implements Policy.
func (Random) Traits() Traits { return Traits{UsesRNG: true} }

// Select implements Policy.
func (Random) Select(in Input, rng *rand.Rand) []socialgraph.UserID {
	t := newTracker(&in, in.workArea())
	chosen := make([]socialgraph.UserID, 0, in.Budget)
	for len(chosen) < in.Budget {
		pool := t.openPool()
		if len(pool) == 0 {
			break
		}
		pick := pool[rng.Intn(len(pool))]
		chosen = append(chosen, in.Candidates[pick])
		t.take(pick)
	}
	return chosen
}

// DefaultPolicies returns the three policies in the order the paper's plots
// list them.
func DefaultPolicies() []Policy {
	return []Policy{MaxAv{}, MostActive{}, Random{}}
}

// SelectablePolicies returns every policy a sweep can select by name: the
// paper's three and MaxAv with the on-demand-activity objective.
func SelectablePolicies() []Policy {
	return []Policy{MaxAv{}, MaxAv{Objective: ObjectiveOnDemandActivity}, MostActive{}, Random{}}
}
