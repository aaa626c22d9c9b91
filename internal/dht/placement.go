package dht

import (
	"math/rand"
	"sync"

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
//
// Select is safe for concurrent use on one *Placement; a Placement must not
// be copied after first use.
type Placement struct {
	// Ring is the key ring (required).
	Ring *Ring
	// Social enables the socially-aware re-ranking.
	Social bool
	// Graph supplies social proximity for the Social variant.
	Graph *socialgraph.Graph

	// scratch pools *selectScratch, so concurrent Select calls from sweep
	// workers each walk and rank in their own buffers.
	scratch sync.Pool
}

// Compile-time interface check.
var _ replica.Policy = &Placement{}

// Name implements replica.Policy.
func (p *Placement) Name() string {
	if p.Social {
		return ArchSocialDHT
	}
	return ArchRandomDHT
}

// Traits implements replica.Policy: DHT placements are deterministic
// and read neither interaction counts nor the demand set.
func (p *Placement) Traits() replica.Traits { return replica.Traits{} }

// window returns the candidate window size for a budget.
func window(budget int) int {
	n := DefaultWindow * budget
	if n < budget {
		n = budget
	}
	return n
}

// Select implements replica.Policy. Candidates are the owner's successor
// window on the ring, walked into a pooled buffer; SocialDHT re-ranks them
// by descending score before the greedy scan, ties resolving by ring
// distance. In ConRep mode candidates that are not time-connected to the
// group built so far are skipped, under the identical rule the friend
// policies use. Only the returned selection is allocated.
func (p *Placement) Select(in replica.Input, _ *rand.Rand) []socialgraph.UserID {
	if p.Ring == nil || in.Budget <= 0 {
		return nil
	}
	sc, _ := p.scratch.Get().(*selectScratch)
	if sc == nil {
		sc = new(selectScratch)
	}
	defer p.scratch.Put(sc)
	sc.cands = p.Ring.appendSuccessors(sc.cands[:0], in.Owner, window(in.Budget))
	cands := sc.cands
	if p.Social {
		sortByScoreDesc(p.score(in, cands, sc), cands)
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

// selectScratch is the per-Select working memory: the successor-candidate
// window and, for the SocialDHT ranking, the owner's-neighbor mark bitset
// (one bit per user, all clear between calls) and the candidate scores.
type selectScratch struct {
	cands  []socialgraph.UserID
	marks  []uint64
	scores []float64
}

// score fills sc.scores with the SocialDHT ranking function of every
// candidate: social proximity to the owner (direct edge = 1, otherwise the
// Jaccard similarity of the neighbor sets) plus the fraction of the day the
// candidate's schedule overlaps the owner's. Both terms lie in [0, 1]; equal
// weighting keeps the score free of tuning knobs.
//
// Proximity never merges two neighbor lists: the owner's neighbors are
// marked once in sc.marks, a candidate is a direct neighbor iff its own bit
// is set, and otherwise |N(owner) ∩ N(c)| is a branch-free sum of bit tests
// over the candidate's list alone. The marks are cleared again by a second
// walk of the owner's list, so sc leaves as clean as it came.
//
//dosn:hotpath
func (p *Placement) score(in replica.Input, cands []socialgraph.UserID, sc *selectScratch) []float64 {
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]float64, len(cands))
	}
	scores := sc.scores[:len(cands)]

	var own []socialgraph.UserID
	if p.Graph != nil {
		own = p.Graph.Neighbors(in.Owner)
		// Candidates come from the ring, neighbors from the graph; sizing by
		// the larger keeps every bit index in range even for a Placement
		// literal that pairs mismatched ones (NewArchitecture rejects those).
		if words := (max(p.Ring.NumNodes(), p.Graph.NumUsers()) + 63) / 64; len(sc.marks) < words {
			sc.marks = make([]uint64, words)
		}
	}
	marks := sc.marks
	for _, f := range own {
		marks[f>>6] |= 1 << (f & 63)
	}
	for i, c := range cands {
		var proximity float64
		switch {
		case len(own) == 0:
			// No graph, or a friendless owner: proximity 0 for everyone.
		case marks[c>>6]>>(c&63)&1 != 0:
			proximity = 1
		default:
			nb := p.Graph.Neighbors(c)
			common := 0
			for _, f := range nb {
				common += int(marks[f>>6] >> (f & 63) & 1)
			}
			if common > 0 {
				proximity = float64(common) / float64(len(own)+len(nb)-common)
			}
		}
		scores[i] = proximity + scheduleOverlap(in, in.Owner, c)
	}
	for _, f := range own {
		marks[f>>6] = 0
	}
	return scores
}

// sortByScoreDesc is a stable insertion sort of cands by descending score,
// permuting scores alongside. A stable order is unique, so the result is
// the one sort.SliceStable gives; a candidate window is a few dozen entries.
func sortByScoreDesc(scores []float64, cands []socialgraph.UserID) {
	for i := 1; i < len(cands); i++ {
		s, c := scores[i], cands[i]
		j := i
		for ; j > 0 && scores[j-1] < s; j-- {
			scores[j], cands[j] = scores[j-1], cands[j-1]
		}
		scores[j], cands[j] = s, c
	}
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
