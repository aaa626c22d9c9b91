package core

import (
	"fmt"
	"math/rand"

	"dosn/internal/dht"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// ArchConfig parameterizes RunArchComparison: one dataset, model and mode,
// swept under several storage architectures over identical schedules.
type ArchConfig struct {
	// Dataset is the trace to replay.
	Dataset *trace.Dataset
	// Model approximates user online times (default Sporadic).
	Model onlinetime.Model
	// Mode selects ConRep or UnconRep placement (default ConRep).
	Mode replica.Mode
	// Architectures names the architectures to compare ("FriendReplica",
	// "RandomDHT", "SocialDHT"); empty means all three.
	Architectures []string
	// RingBits is the DHT ring identifier width (0 = dht.DefaultBits).
	RingBits int
	// MaxDegree, UserDegree, Repeats and Seed mirror Config.
	MaxDegree  int
	UserDegree int
	Repeats    int
	Seed       int64
	// Workers bounds the per-sweep worker pool; never affects results.
	Workers int
}

func (c *ArchConfig) fill() error {
	if c.Dataset == nil {
		return ErrNoDataset
	}
	if c.Model == nil {
		c.Model = onlinetime.Sporadic{}
	}
	if c.Mode == 0 {
		c.Mode = replica.ConRep
	}
	if len(c.Architectures) == 0 {
		c.Architectures = dht.ArchNames()
	}
	for _, a := range c.Architectures {
		if !dht.ValidArchName(a) {
			return fmt.Errorf("core: unknown architecture %q (FriendReplica|RandomDHT|SocialDHT)", a)
		}
	}
	if c.RingBits == 0 {
		c.RingBits = dht.DefaultBits
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 10
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	return nil
}

// ArchRow is one architecture's side of the comparison.
type ArchRow struct {
	// Architecture is the canonical architecture name.
	Architecture string
	// Sweep holds the paper's four efficiency metrics for every (policy,
	// degree) of this architecture, computed over the same users and the
	// same schedules as every other row.
	Sweep *Result
	// Lookup summarizes DHT resolution cost: one lookup per (owner, friend
	// reader) pair of the analysis population, routed on the ring from the
	// reader to the owner's profile key. FriendReplica rows are zero-valued
	// — a friend fetches the profile in one direct social contact, which is
	// exactly the routing cost the DHT architectures trade against.
	Lookup metrics.RoutingStats
	// LoadMean/Max/CV/Gini summarize per-node replica-storage load when the
	// architecture's primary policy (MaxAv for FriendReplica, the placement
	// itself for the DHT variants) places every profile in the dataset at
	// the full budget.
	LoadMean float64
	LoadMax  float64
	LoadCV   float64
	LoadGini float64
}

// RunArchComparison evaluates the configured storage architectures head to
// head: the same dataset, the same online-time schedules (computed once per
// repetition and shared), the same analysis population — only the placement
// architecture changes. Beyond the paper's four sweep metrics it reports the
// two quantities that separate the architecture families: lookup hop cost
// and per-node storage-load imbalance.
func RunArchComparison(cfg ArchConfig) ([]ArchRow, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ds := cfg.Dataset
	// One analysis population for every row: the sweeps average over it and
	// the DHT rows route one lookup per (owner, friend) pair of it.
	owners, err := analysisUsers(ds.Graph, cfg.UserDegree)
	if err != nil {
		return nil, err
	}

	var ring *dht.Ring
	for _, a := range cfg.Architectures {
		if a != dht.ArchFriendReplica {
			r, err := dht.BuildRing(ds.NumUsers(), dht.Config{Bits: cfg.RingBits})
			if err != nil {
				return nil, err
			}
			ring = r
			break
		}
	}

	// One schedule table per repetition, derived exactly as core.Run derives
	// its fallback schedules, shared by every architecture: the comparison
	// varies placement and nothing else.
	tables := make([]*onlinetime.Table, cfg.Repeats)
	for rep := range tables {
		tables[rep] = cfg.Model.BuildTable(ds, rand.New(rand.NewSource(mix(cfg.Seed, int64(rep)))), cfg.Workers)
	}

	rows := make([]ArchRow, 0, len(cfg.Architectures))
	for _, name := range cfg.Architectures {
		arch, err := dht.NewArchitecture(name, ring, ds.Graph, nil)
		if err != nil {
			return nil, err
		}
		policies := arch.Policies()
		sweep, err := Run(Config{
			Dataset:   ds,
			Model:     cfg.Model,
			Mode:      cfg.Mode,
			Policies:  policies,
			MaxDegree: cfg.MaxDegree,
			Users:     owners,
			Repeats:   cfg.Repeats,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Schedules: tables,
		})
		if err != nil {
			return nil, fmt.Errorf("architecture %s: %w", name, err)
		}
		row := ArchRow{Architecture: name, Sweep: sweep}
		// Storage load: the architecture's primary policy over the first
		// repetition's schedule table.
		load := placementLoad(ds, tables[0].Bitmaps(), policies[0], cfg.Mode, cfg.MaxDegree,
			func(u int) int64 { return mix(cfg.Seed, 41, int64(u)) })
		row.LoadMean, row.LoadMax, row.LoadCV = metrics.LoadImbalance(load)
		row.LoadGini = metrics.Gini(load)
		if name != dht.ArchFriendReplica {
			row.Lookup = archLookupStats(ring, ds, owners)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// placementLoad places every profile in the dataset with the policy at the
// full budget and returns the per-host replica counts (metrics.HostLoad).
// Inputs the policy declares it ignores (replica.Traits) are not prepared;
// seedOf supplies the per-user RNG seed of randomized policies.
func placementLoad(ds *trace.Dataset, bitmaps []interval.Bitmap, p replica.Policy, mode replica.Mode, budget int, seedOf func(u int) int64) []int {
	traits := replica.TraitsOf(p)
	assignments := make(map[socialgraph.UserID][]socialgraph.UserID, ds.NumUsers())
	var countScratch trace.CountScratch
	var demand interval.Bitmap
	for u := 0; u < ds.NumUsers(); u++ {
		uid := socialgraph.UserID(u)
		in := replica.Input{
			Owner:      uid,
			Candidates: ds.Graph.Neighbors(uid),
			Bitmaps:    bitmaps,
			Mode:       mode,
			Budget:     budget,
		}
		if traits.UsesInteractions {
			in.CandidateCounts = ds.CandidateInteractionCounts(uid, in.Candidates, &countScratch)
		}
		if traits.UsesDemand {
			demand.Clear()
			for _, k := range ds.ReceivedIdx(uid) {
				m := ds.MinuteOfDayAt(int(k))
				demand.AddInterval(interval.Interval{Start: m, End: m + 1})
			}
			in.Demand = &demand
		}
		var rng *rand.Rand
		if traits.UsesRNG {
			rng = rand.New(rand.NewSource(seedOf(u)))
		}
		assignments[uid] = p.Select(in, rng)
	}
	return metrics.HostLoad(assignments, ds.NumUsers())
}

// archLookupStats routes one profile lookup per (owner, friend) pair of the
// analysis population — the reader workload the AoD-time metric models —
// and summarizes the hop counts.
func archLookupStats(ring *dht.Ring, ds *trace.Dataset, owners []socialgraph.UserID) metrics.RoutingStats {
	var hops []int
	for _, u := range owners {
		key := ring.Key(u)
		for _, f := range ds.Graph.Neighbors(u) {
			hops = append(hops, ring.HopCount(f, key))
		}
	}
	return metrics.SummarizeHops(hops)
}
