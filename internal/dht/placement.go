package dht

import (
	"math/rand"
	"sort"

	"dosn/internal/interval"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// DefaultWindow is the successor-candidate window multiplier: a placement
// with budget r considers the first DefaultWindow×r successors of the
// profile key. RandomDHT needs the slack only to survive ConRep filtering;
// SocialDHT additionally re-ranks inside the window.
const DefaultWindow = 4

// Placement puts profile replicas on ring successors of the profile key
// instead of on friends. It implements replica.Policy, so the sweep engine
// evaluates it exactly like the paper's policies; Input.Candidates (the
// friend list) is ignored — the candidate set comes from the ring.
//
// With Social unset the placement is RandomDHT: replicas go to the successor
// list in plain ring order, the DECENT-style configuration where storage
// location is independent of the social graph. With Social set (and Graph
// supplied) it is SocialDHT: the successor-candidate window is re-ranked by
// social proximity to the owner plus schedule overlap with the owner before
// selection, the Nasir-style socially-aware variant.
//
// A selection is an ordered sequence whose prefix of length r is the
// degree-r replica group — the contract core.Run's one-selection-per-user
// degree sweep relies on. RandomDHT is additionally consistent across budget
// values (a larger budget only extends the successor scan); SocialDHT ranks
// a budget-sized candidate window, so selections from different budgets may
// reorder. Both variants are fully deterministic (no RNG).
type Placement struct {
	// Ring is the key ring (required).
	Ring *Ring
	// Social enables the socially-aware re-ranking.
	Social bool
	// Graph supplies social proximity for the Social variant.
	Graph *socialgraph.Graph
	// Window overrides the candidate window multiplier (default
	// DefaultWindow).
	Window int
}

// Compile-time interface checks.
var (
	_ replica.Policy        = &Placement{}
	_ replica.TraitedPolicy = &Placement{}
)

// Name implements replica.Policy.
func (p *Placement) Name() string {
	if p.Social {
		return "SocialDHT"
	}
	return "RandomDHT"
}

// Traits implements replica.TraitedPolicy: DHT placements are deterministic
// and read neither interaction counts nor the demand set.
func (p *Placement) Traits() replica.Traits { return replica.Traits{} }

// window returns the candidate window size for a budget.
func (p *Placement) window(budget int) int {
	w := p.Window
	if w <= 0 {
		w = DefaultWindow
	}
	n := w * budget
	if n < budget {
		n = budget
	}
	return n
}

// Select implements replica.Policy. Candidates are the owner's successor
// window on the ring; SocialDHT re-ranks them by descending score before the
// greedy scan. In ConRep mode candidates that are not time-connected to the
// group built so far are skipped, under the identical rule the friend
// policies use.
func (p *Placement) Select(in replica.Input, _ *rand.Rand) []socialgraph.UserID {
	if p.Ring == nil || in.Budget <= 0 {
		return nil
	}
	cands := p.Ring.SuccessorsOf(in.Owner, p.window(in.Budget))
	if p.Social {
		p.rank(in, cands)
	}
	chosen := make([]socialgraph.UserID, 0, in.Budget)
	for _, c := range cands {
		if len(chosen) == in.Budget {
			break
		}
		if in.Mode == replica.ConRep && !in.Connected(c, chosen) {
			continue
		}
		chosen = append(chosen, c)
	}
	return chosen
}

// rank reorders cands in place by descending placement score; ties resolve
// by the original successor-list order (ring distance), which sort.SliceStable
// preserves, so the ranking is deterministic.
func (p *Placement) rank(in replica.Input, cands []socialgraph.UserID) {
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = p.score(in, c)
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	ranked := make([]socialgraph.UserID, len(cands))
	for i, j := range idx {
		ranked[i] = cands[j]
	}
	copy(cands, ranked)
}

// score is the SocialDHT ranking function: social proximity to the owner
// (direct edge = 1, otherwise the Jaccard similarity of the neighbor sets)
// plus the fraction of the day the candidate's schedule overlaps the
// owner's. Both terms lie in [0, 1]; equal weighting keeps the score free of
// tuning knobs.
func (p *Placement) score(in replica.Input, c socialgraph.UserID) float64 {
	return p.proximity(in.Owner, c) + scheduleOverlap(in, in.Owner, c)
}

// proximity measures social closeness of owner and candidate in [0, 1].
func (p *Placement) proximity(owner, c socialgraph.UserID) float64 {
	if p.Graph == nil {
		return 0
	}
	if p.Graph.HasEdge(owner, c) {
		return 1
	}
	return jaccard(p.Graph.Neighbors(owner), p.Graph.Neighbors(c))
}

// jaccard computes |a ∩ b| / |a ∪ b| over two sorted ID slices.
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

// scheduleOverlap returns |OT_a ∩ OT_b| / DayMinutes over the dense
// schedules; an ID outside Input.Bitmaps is never online.
func scheduleOverlap(in replica.Input, a, b socialgraph.UserID) float64 {
	if validID(a, len(in.Bitmaps)) && validID(b, len(in.Bitmaps)) {
		return float64(in.Bitmaps[a].OverlapMinutes(&in.Bitmaps[b])) / interval.DayMinutes
	}
	return 0
}

func validID(u socialgraph.UserID, n int) bool { return u >= 0 && int(u) < n }
