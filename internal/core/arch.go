package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"dosn/internal/dht"
	"dosn/internal/fault"
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
	// MaxDegree, UserDegree, Repeats and Seed mirror Config.
	MaxDegree  int
	UserDegree int
	Repeats    int
	Seed       int64
	// Workers bounds the worker pool of each sweep, table build and
	// placement pass (default runtime.NumCPU()); never affects results.
	Workers int
}

// faultPlacementChunk sits inside a placement-pass worker, per claimed chunk.
var faultPlacementChunk = fault.NewSite("core.placement-chunk")

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
	if c.MaxDegree <= 0 {
		c.MaxDegree = 10
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
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

	// One ring, and so one lookup summary, shared by every DHT row: ring and
	// readers are the same whichever way the successors are ranked.
	var ring *dht.Ring
	var lookup metrics.RoutingStats
	for _, a := range cfg.Architectures {
		if a != dht.ArchFriendReplica {
			r, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
			if err != nil {
				return nil, err
			}
			ring, lookup = r, archLookupStats(r, ds, owners)
			break
		}
	}

	// One schedule table per repetition (repTable, as Run builds its own),
	// shared by every architecture: the comparison varies placement and
	// nothing else.
	tables := make([]*onlinetime.Table, cfg.Repeats)
	for rep := range tables {
		tables[rep] = repTable(cfg.Model, ds, cfg.Seed, rep, cfg.Workers)
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
		load, err := placementLoad(ds, tables[0].Bitmaps(), policies[0], cfg.Mode, cfg.MaxDegree, cfg.Workers,
			func(u int) int64 { return mix(cfg.Seed, 41, int64(u)) })
		if err != nil {
			return nil, fmt.Errorf("architecture %s: %w", name, err)
		}
		row.LoadMean, row.LoadMax, row.LoadCV = metrics.LoadImbalance(load)
		row.LoadGini = metrics.Gini(load)
		if name != dht.ArchFriendReplica {
			row.Lookup = lookup
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// placementChunkSize fixes the user-chunk granularity of the placement
// pass. As in the sweep, chunk boundaries depend only on the population; a
// chunk is large enough that claiming one is noise beside placing it and
// small enough that a 13k-user dataset still balances over every core.
const placementChunkSize = 128

// placementLoad places every profile in the dataset with the policy at the
// full budget and returns the per-host replica counts — how many foreign
// profiles each user stores, the fairness/storage-balance requirement of
// §II-B1. seedOf supplies the per-user RNG seed of randomized policies.
//
// Up to `workers` workers claim fixed index-ordered user chunks through
// fault.Chunks, each with a replica.Placer and a load vector of its own; the
// first worker to run out of chunks hands its vector over as the total and
// the others add theirs into it, under mu.
// Integer addition commutes and every per-user input (seedOf(u) included) is
// a function of the user alone, so the result cannot depend on the worker
// count or the claim order. A failure in any worker — an injected fault, a
// panicking policy — comes back from fault.Chunks as the pass's error.
func placementLoad(ds *trace.Dataset, bitmaps []interval.Bitmap, p replica.Policy, mode replica.Mode, budget, workers int, seedOf func(u int) int64) ([]int, error) {
	n := ds.NumUsers()
	usesRNG := replica.TraitsOf(p).UsesRNG
	var mu sync.Mutex
	var total []int
	err := fault.Chunks(n, placementChunkSize, workers, func(next func() (lo, hi int, ok bool)) error {
		load := make([]int, n)
		pl := replica.NewPlacer(ds, bitmaps, mode, budget, p)
		var gen workerRNG
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			if err := faultPlacementChunk.InjectSeeded(int64(lo)); err != nil {
				return err
			}
			for u := lo; u < hi; u++ {
				in := pl.Input(socialgraph.UserID(u))
				var rng *rand.Rand
				if usesRNG {
					rng = gen.seeded(seedOf(u))
				}
				metrics.AddHostLoad(load, p.Select(in, rng))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if total == nil {
			total = load
			return nil
		}
		for h, c := range load {
			total[h] += c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// archLookupStats routes one profile lookup per (owner, friend) pair of the
// analysis population — the reader workload the AoD-time metric models —
// and summarizes the hop counts.
func archLookupStats(ring *dht.Ring, ds *trace.Dataset, owners []socialgraph.UserID) metrics.RoutingStats {
	lookups := 0
	for _, u := range owners {
		lookups += ds.Graph.Degree(u)
	}
	hops := make([]int, 0, lookups)
	for _, u := range owners {
		key := ring.Key(u)
		for _, f := range ds.Graph.Neighbors(u) {
			hops = append(hops, ring.HopCount(f, key))
		}
	}
	return metrics.SummarizeHops(hops)
}
