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
package replica

import (
	"math/rand"
	"sort"

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

// eligible returns the not-yet-chosen candidates permitted by the mode.
func (in *Input) eligible(chosen []socialgraph.UserID, taken map[socialgraph.UserID]bool) []socialgraph.UserID {
	out := make([]socialgraph.UserID, 0, len(in.Candidates))
	for _, c := range in.Candidates {
		if taken[c] {
			continue
		}
		if in.Mode == ConRep && !in.Connected(c, chosen) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Policy chooses replica locations for a user's profile.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the chosen replica hosts, at most in.Budget of them.
	// The result may be shorter than the budget when the policy runs out of
	// eligible or useful candidates (the paper notes this for ConRep).
	Select(in Input, rng *rand.Rand) []socialgraph.UserID
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

// TraitedPolicy is optionally implemented by policies that can declare their
// traits. Policies that do not implement it are assumed to consume
// everything.
type TraitedPolicy interface {
	Traits() Traits
}

// TraitsOf returns the declared traits of p, or the conservative
// everything-consumed default for policies that do not declare any.
func TraitsOf(p Policy) Traits {
	if tp, ok := p.(TraitedPolicy); ok {
		return tp.Traits()
	}
	return Traits{UsesRNG: true, UsesInteractions: true, UsesDemand: true}
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

// Traits implements TraitedPolicy: MaxAv is deterministic and ignores the
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
	// taken is indexed by candidate position, not ID. A duplicate candidate
	// entry would stay "eligible" after its twin is chosen, but its marginal
	// gain is then 0 and gains must exceed 0 to be picked, so the selected
	// sequence is identical to the ID-keyed map this replaces.
	taken := make([]bool, len(in.Candidates))
	restricted := m.Objective == ObjectiveOnDemandActivity

	// Candidate schedules are pointers into the shared arena. Sizes are
	// cached so each greedy probe needs a single overlap popcount
	// (gain = size − overlap).
	cand := make([]*interval.Bitmap, len(in.Candidates))
	size := make([]int, len(in.Candidates))
	for i, c := range in.Candidates {
		cand[i] = in.bitmap(c)
		size[i] = cand[i].Minutes()
	}

	var covered interval.Bitmap // the owner always hosts his profile
	covered.CopyFrom(in.bitmap(in.Owner))
	demand := in.Demand
	if restricted && demand == nil {
		// An unprepared universe is not an empty one: covering nothing would
		// silently place no replica at all.
		panic("replica: MaxAv(activity) needs Input.Demand; build the Input with a replica.Placer")
	}

	// ConRep connectivity, maintained incrementally: conn[i] starts as
	// "overlaps the owner" (covered holds exactly the owner's minutes here)
	// and each chosen replica can only switch candidates from unconnected to
	// connected, so one Intersects against the new replica per candidate per
	// round replaces Connected's rescan of the whole chosen list. The
	// answers are identical to Input.Connected at every probe.
	var conn []bool
	if in.Mode == ConRep {
		conn = make([]bool, len(in.Candidates))
		for i := range in.Candidates {
			conn[i] = cand[i].Intersects(&covered)
		}
	}

	// bound[i] is an upper bound on candidate i's marginal gain: initially
	// its schedule size, thereafter its gain the last time it was evaluated.
	// covered only grows, so gains are non-increasing across rounds
	// (coverage is submodular) and the bound stays valid even for rounds a
	// candidate sat out as unconnected. A candidate with bound < bestGain
	// cannot win the round, and one with bound 0 can never be picked at all
	// (selection requires gain > 0), so both skips leave the chosen
	// sequence bit-identical to the full rescan.
	bound := make([]int, len(in.Candidates))
	copy(bound, size)

	for len(chosen) < in.Budget {
		bestIdx := -1
		bestGain := 0
		bestOverlap := 0
		for i := range in.Candidates {
			if taken[i] {
				continue
			}
			if conn != nil && !conn[i] {
				continue
			}
			if bound[i] == 0 || bound[i] < bestGain {
				continue
			}
			overlap := covered.OverlapMinutes(cand[i])
			var gain int
			if restricted {
				// Contribution inside the demand universe only.
				gain = cand[i].MinutesInNotIn(demand, &covered)
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
		taken[bestIdx] = true
		covered.OrWith(cand[bestIdx])
		if conn != nil {
			for i := range conn {
				if !conn[i] && cand[i].Intersects(cand[bestIdx]) {
					conn[i] = true
				}
			}
		}
	}
	return chosen
}

// MostActive picks the top-k most active friends — those who created the
// most activity on the owner's profile — filling up with random friends when
// fewer than k have non-zero activity (§III-B).
type MostActive struct{}

// Name implements Policy.
func (MostActive) Name() string { return "MostActive" }

// Traits implements TraitedPolicy.
func (MostActive) Traits() Traits { return Traits{UsesRNG: true, UsesInteractions: true} }

// Select implements Policy. Ranking runs over candidate positions, so the
// positional CandidateCounts column needs no ID lookups.
func (MostActive) Select(in Input, rng *rand.Rand) []socialgraph.UserID {
	ranked := make([]int, len(in.Candidates))
	for i := range ranked {
		ranked[i] = i
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		ci := in.CandidateCounts[ranked[a]]
		cj := in.CandidateCounts[ranked[b]]
		if ci != cj {
			return ci > cj
		}
		return in.Candidates[ranked[a]] < in.Candidates[ranked[b]]
	})

	chosen := make([]socialgraph.UserID, 0, in.Budget)
	taken := make(map[socialgraph.UserID]bool, in.Budget)
	for len(chosen) < in.Budget {
		// Highest-ranked eligible candidate with non-zero activity.
		best := socialgraph.UserID(-1)
		for _, i := range ranked {
			c := in.Candidates[i]
			if taken[c] || in.CandidateCounts[i] == 0 {
				continue
			}
			if in.Mode == ConRep && !in.Connected(c, chosen) {
				continue
			}
			best = c
			break
		}
		if best < 0 {
			// Out of active candidates: fall back to random friends, as the
			// paper prescribes when there are not enough active ones.
			pool := in.eligible(chosen, taken)
			if len(pool) == 0 {
				break
			}
			best = pool[rng.Intn(len(pool))]
		}
		chosen = append(chosen, best)
		taken[best] = true
	}
	return chosen
}

// Random picks uniformly random friends (§III-C), restricted to
// time-connected candidates in ConRep mode.
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "Random" }

// Traits implements TraitedPolicy.
func (Random) Traits() Traits { return Traits{UsesRNG: true} }

// Select implements Policy.
func (Random) Select(in Input, rng *rand.Rand) []socialgraph.UserID {
	chosen := make([]socialgraph.UserID, 0, in.Budget)
	taken := make(map[socialgraph.UserID]bool, in.Budget)
	for len(chosen) < in.Budget {
		pool := in.eligible(chosen, taken)
		if len(pool) == 0 {
			break
		}
		pick := pool[rng.Intn(len(pool))]
		chosen = append(chosen, pick)
		taken[pick] = true
	}
	return chosen
}

// DefaultPolicies returns the three policies in the order the paper's plots
// list them.
func DefaultPolicies() []Policy {
	return []Policy{MaxAv{}, MostActive{}, Random{}}
}
