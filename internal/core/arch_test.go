package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dosn/internal/dht"
	"dosn/internal/fault"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

func archDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := trace.DefaultFacebookConfig(400)
	cfg.MeanDegree, cfg.SigmaDegree, cfg.Seed = 12, 0.6, 33
	ds, err := trace.Synthesize(cfg)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return ds
}

func TestRunArchComparison(t *testing.T) {
	ds := archDataset(t)
	rows, err := RunArchComparison(ArchConfig{
		Dataset:   ds,
		MaxDegree: 4,
		Repeats:   1,
		Seed:      42,
	})
	if err != nil {
		t.Fatalf("RunArchComparison: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (all architectures by default)", len(rows))
	}
	byName := map[string]ArchRow{}
	for _, r := range rows {
		byName[r.Architecture] = r
		if r.Sweep == nil || r.Sweep.Users == 0 {
			t.Fatalf("architecture %s has no sweep result", r.Architecture)
		}
		if r.LoadMean <= 0 {
			t.Errorf("architecture %s reports zero storage load", r.Architecture)
		}
	}
	friend := byName[dht.ArchFriendReplica]
	random := byName[dht.ArchRandomDHT]
	social := byName[dht.ArchSocialDHT]

	// Every row averages over the same analysis population.
	if friend.Sweep.Users != random.Sweep.Users || random.Sweep.Users != social.Sweep.Users {
		t.Errorf("analysis populations differ: %d/%d/%d",
			friend.Sweep.Users, random.Sweep.Users, social.Sweep.Users)
	}
	// Friend replication pays no lookup hops; the DHT variants must.
	if friend.Lookup.Lookups != 0 {
		t.Errorf("FriendReplica reports %d lookups", friend.Lookup.Lookups)
	}
	if random.Lookup.Lookups == 0 || random.Lookup.MeanHops <= 0 {
		t.Errorf("RandomDHT lookup stats empty: %+v", random.Lookup)
	}
	if social.Lookup != random.Lookup {
		t.Errorf("DHT variants share the ring but report different lookup stats: %+v vs %+v",
			social.Lookup, random.Lookup)
	}
	// Hash placement spreads storage more evenly than any social choice:
	// RandomDHT's load skew must sit at or below FriendReplica's (MaxAv).
	if random.LoadGini >= friend.LoadGini {
		t.Errorf("RandomDHT load Gini %.3f not below FriendReplica's %.3f",
			random.LoadGini, friend.LoadGini)
	}
	// And social re-ranking must actually change placement vs plain hashing.
	rv := random.Sweep.Value(0, 4, MetricAvailability)
	sv := social.Sweep.Value(0, 4, MetricAvailability)
	fv := friend.Sweep.Value(0, 4, MetricAvailability)
	if rv == sv && sv == fv {
		t.Errorf("all architectures produced availability %v", fv)
	}
}

func TestRunArchComparisonDeterministicAcrossWorkers(t *testing.T) {
	ds := archDataset(t)
	run := func(workers int) []ArchRow {
		rows, err := RunArchComparison(ArchConfig{
			Dataset:       ds,
			Architectures: []string{dht.ArchRandomDHT, dht.ArchSocialDHT},
			MaxDegree:     3,
			Repeats:       2,
			Seed:          7,
			Workers:       workers,
		})
		if err != nil {
			t.Fatalf("RunArchComparison(workers=%d): %v", workers, err)
		}
		return rows
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Error("architecture comparison depends on worker count")
	}
}

func TestRunArchComparisonFriendRowMatchesPlainSweep(t *testing.T) {
	// The FriendReplica row must reproduce core.Run bit for bit: the
	// architecture comparison is a wrapper, not a different experiment.
	ds := archDataset(t)
	rows, err := RunArchComparison(ArchConfig{
		Dataset:       ds,
		Architectures: []string{dht.ArchFriendReplica},
		MaxDegree:     3,
		Repeats:       2,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Dataset: ds, MaxDegree: 3, Repeats: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows[0].Sweep, want) {
		t.Error("FriendReplica row differs from a plain core.Run with the same seed")
	}
}

func TestRunArchComparisonValidation(t *testing.T) {
	if _, err := RunArchComparison(ArchConfig{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := archDataset(t)
	if _, err := RunArchComparison(ArchConfig{Dataset: ds, Architectures: []string{"Gossip"}}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestDHTPoliciesThroughEngine drives the DHT placements through core.Run
// directly, pinning that the engine's trait gating, prefix sweep and metric
// accumulation work for ring-sourced candidates.
func TestDHTPoliciesThroughEngine(t *testing.T) {
	ds := archDataset(t)
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Dataset: ds,
		Policies: []replica.Policy{
			&dht.Placement{Ring: ring},
			&dht.Placement{Ring: ring, Social: true, Graph: ds.Graph},
		},
		MaxDegree: 5,
		Repeats:   1,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Policies; got[0] != "RandomDHT" || got[1] != "SocialDHT" {
		t.Fatalf("policies = %v", got)
	}
	for pi := range res.Policies {
		prev := -1.0
		for di := range res.Degrees {
			v := res.Value(pi, di, MetricAvailability)
			if v < prev-1e-9 {
				t.Errorf("%s availability not monotone in degree", res.Policies[pi])
			}
			prev = v
		}
		if eff := res.Value(pi, 5, MetricEffectiveReplicas); eff <= 0 {
			t.Errorf("%s placed no replicas at budget 5", res.Policies[pi])
		}
	}
}

// TestPlacementLoadWorkerInvariant: the load vector of every placement the
// repo ships — the three friend policies and both DHT variants, in both
// modes — must equal a serial fold of Select over the users, whatever the
// worker count. archDataset's 400 users make four chunks, so 2 and 7
// workers split them differently (and 7 caps at one worker per chunk).
func TestPlacementLoadWorkerInvariant(t *testing.T) {
	ds := archDataset(t)
	bitmaps := onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 9, 1).Bitmaps()
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	policies := append(replica.DefaultPolicies(),
		&dht.Placement{Ring: ring},
		&dht.Placement{Ring: ring, Social: true, Graph: ds.Graph})
	seedOf := func(u int) int64 { return mix(5, int64(u)) }
	const budget = 4
	for _, p := range policies {
		for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
			want := make([]int, ds.NumUsers())
			var counts trace.CountScratch
			for u := 0; u < ds.NumUsers(); u++ {
				uid := socialgraph.UserID(u)
				friends := ds.Graph.Neighbors(uid)
				var demand interval.Bitmap
				for _, k := range ds.ReceivedIdx(uid) {
					m := ds.MinuteOfDayAt(int(k))
					demand.AddInterval(interval.Interval{Start: m, End: m + 1})
				}
				metrics.AddHostLoad(want, p.Select(replica.Input{
					Owner:           uid,
					Candidates:      friends,
					CandidateCounts: ds.CandidateInteractionCounts(uid, friends, &counts),
					Demand:          &demand,
					Bitmaps:         bitmaps,
					Mode:            mode,
					Budget:          budget,
				}, rand.New(rand.NewSource(seedOf(u)))))
			}
			placed := 0
			for _, c := range want {
				placed += c
			}
			if placed == 0 {
				t.Fatalf("%s/%v: reference fold placed nothing", p.Name(), mode)
			}
			for _, workers := range []int{1, 2, 7} {
				got, err := placementLoad(ds, bitmaps, p, mode, budget, workers, seedOf)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", p.Name(), mode, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v workers=%d: load differs from the serial fold", p.Name(), mode, workers)
				}
			}
		}
	}
}

// TestPlacerWorkAreasPerWorker: every sweep worker's Placer carries the
// work area all six shipped placements alternate on, user after user, so
// the sweep must give the same bits at every worker count in both modes.
// Run under -race it also pins that no work area is shared between workers.
func TestPlacerWorkAreasPerWorker(t *testing.T) {
	ds := archDataset(t)
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	policies := append(replica.DefaultPolicies(),
		replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity},
		&dht.Placement{Ring: ring},
		&dht.Placement{Ring: ring, Social: true, Graph: ds.Graph})
	users := make([]socialgraph.UserID, ds.NumUsers())
	for u := range users {
		users[u] = socialgraph.UserID(u)
	}
	for _, mode := range []replica.Mode{replica.ConRep, replica.UnconRep} {
		var ref *Result
		for _, workers := range []int{1, 3} {
			res, err := Run(Config{
				Dataset: ds, Model: onlinetime.Sporadic{}, Mode: mode, Policies: policies,
				Users: users, MaxDegree: 4, Repeats: 1, Seed: 3, Workers: workers,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if ref == nil {
				ref = res
			} else if !reflect.DeepEqual(ref, res) {
				t.Errorf("%v: the sweep with %d workers differs bitwise from 1 worker", mode, workers)
			}
		}
	}
}

// TestPlacementWorkerFaultBecomesError: a panic inside a placement-pass
// worker goroutine (and an injected error there) must come back as
// RunArchComparison's error, carrying the injected fault, and leave nothing
// behind that perturbs a clean rerun.
func TestPlacementWorkerFaultBecomesError(t *testing.T) {
	ds := archDataset(t)
	cfg := ArchConfig{Dataset: ds, MaxDegree: 3, Repeats: 1, Seed: 7, Workers: 4}
	// The 2nd hit is claimed by whichever worker gets there — on most runs a
	// spawned goroutine, on the rest the caller's own pass.
	for _, spec := range []string{"core.placement-chunk=panic(2)", "core.placement-chunk=error(2)"} {
		withFaults(t, spec)
		_, err := RunArchComparison(cfg)
		if err == nil {
			t.Fatalf("%s: RunArchComparison swallowed the injected fault", spec)
		}
		if inj, ok := fault.AsInjected(err); !ok || inj.Site != "core.placement-chunk" {
			t.Fatalf("%s: error lost the injected fault: %v", spec, err)
		}
		fault.Disable()
	}

	got, err := RunArchComparison(cfg)
	if err != nil {
		t.Fatalf("clean rerun after recovered panic: %v", err)
	}
	cfg.Workers = 1
	ref, err := RunArchComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("post-recovery rerun diverged from the one-worker reference")
	}
}
