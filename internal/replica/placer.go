package replica

import (
	"dosn/internal/interval"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Placer builds the Input of every user of one (dataset, schedule table,
// mode, budget) — the only constructor of an Input outside this package and
// the tests (the dosn-vet inputlit analyzer holds the line). It owns the
// buffers the optional ingredients live in, so a warmed Placer allocates
// nothing per user, and it prepares an ingredient only when one of the
// policies it was built for declares (Traits) that it reads it.
//
// It also owns the policies' working memory, which every Input it prepares
// carries: a warmed Select on such an Input allocates only the selection it
// returns, and that selection belongs to the caller. The working memory
// belongs to the Placer.
//
// A Placer is not safe for concurrent use, and neither are its Inputs:
// two Inputs from one Placer must not be Selected concurrently. A parallel
// pass gives every worker its own Placer.
type Placer struct {
	ds      *trace.Dataset
	bitmaps []interval.Bitmap
	mode    Mode
	budget  int
	traits  Traits // union over the policies; UsesRNG is the caller's business
	counts  trace.CountScratch
	demand  interval.Bitmap
	work    selectWork
}

// NewPlacer returns a Placer over the dataset and the arena rows of one
// schedule table, preparing what any of the given policies consumes. With no
// policies an Input carries the candidates and nothing else — for a caller
// that supplies its own interaction counts (a windowed history, say).
func NewPlacer(ds *trace.Dataset, bitmaps []interval.Bitmap, mode Mode, budget int, policies ...Policy) *Placer {
	pl := &Placer{ds: ds, bitmaps: bitmaps, mode: mode, budget: budget}
	for _, p := range policies {
		t := p.Traits()
		pl.traits.UsesInteractions = pl.traits.UsesInteractions || t.UsesInteractions
		pl.traits.UsesDemand = pl.traits.UsesDemand || t.UsesDemand
	}
	return pl
}

// Input prepares the placement input of user u. CandidateCounts and Demand
// point into the Placer and are valid until its next Input call; the Input
// carries the Placer's work area to the policies' Select.
//
//dosn:hotpath
func (pl *Placer) Input(u socialgraph.UserID) Input {
	in := Input{
		Owner:      u,
		Candidates: pl.ds.Graph.Neighbors(u),
		Bitmaps:    pl.bitmaps,
		Mode:       pl.mode,
		Budget:     pl.budget,
		work:       &pl.work,
	}
	if pl.traits.UsesInteractions {
		in.CandidateCounts = pl.ds.CandidateInteractionCounts(u, in.Candidates, &pl.counts)
	}
	if pl.traits.UsesDemand {
		// §III-A's universe: the distinct minutes-of-day of the activity
		// received on u's profile, read straight off the timestamp column.
		pl.demand.Clear()
		for _, k := range pl.ds.ReceivedIdx(u) {
			m := pl.ds.MinuteOfDayAt(int(k))
			pl.demand.AddInterval(interval.Interval{Start: m, End: m + 1})
		}
		in.Demand = &pl.demand
	}
	return in
}
