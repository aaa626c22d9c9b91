package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
)

// referenceSynthesize is the generator with nothing fused: every row of every
// user drawn, appended as a full (creator, receiver, timestamp) row, and
// ordered by Reindex's stable sort. It consumes the RNG in the contract
// order, so synthesize must agree with it — and, filtered, with
// FilterMinActivity applied to it — on every byte.
func referenceSynthesize(cfg SynthConfig) *Dataset {
	rng := mathrand.New(cfg.Seed)
	degrees := lognormalInts(rng, cfg.Users, cfg.MeanDegree, cfg.SigmaDegree, 1, cfg.Users-1)
	var g *socialgraph.Graph
	if cfg.Directed {
		g = followerGraph(degrees, rng)
	} else {
		g = socialgraph.GenerateConfigurationModel(degrees, rng)
	}
	homes := make([]int, cfg.Users)
	for u := range homes {
		homes[u] = sampleHomeMinute(rng)
	}
	counts := lognormalInts(rng, cfg.Users, cfg.MeanActivities, cfg.SigmaActivities, 0, 100000)
	d := &Dataset{Name: cfg.Name, Graph: g}
	zipf := newZipfSampler(cfg.AffinityZipfS)
	for u := 0; u < cfg.Users; u++ {
		targets := activityTargets(g, socialgraph.UserID(u))
		if len(targets) == 0 {
			continue
		}
		perm := make([]int32, len(targets))
		permInto(rng, perm)
		for i := 0; i < counts[u]; i++ {
			recv := targets[perm[zipf.rank(zipfDraw(rng, cfg.AffinityZipfS, len(targets)), len(targets))]]
			minute := sampleMinute(rng, homes[u], cfg.UniformFraction, cfg.DiurnalSigmaMinutes)
			day := rng.Intn(cfg.Days)
			at := Epoch.Unix() + int64(day)*daySeconds + int64(minute)*60 + int64(rng.Intn(60))
			d.appendColumns(socialgraph.UserID(u), recv, at)
		}
	}
	d.Reindex()
	return d
}

// diffDatasets names the first part of two datasets that differs: columns,
// derived column, both CSR directions, graph, and the memory estimate (which
// counts capacity, so slack in any backing array shows up here).
func diffDatasets(got, want *Dataset) string {
	switch {
	case !slices.Equal(got.creator, want.creator):
		return "creator column"
	case !slices.Equal(got.receiver, want.receiver):
		return "receiver column"
	case !slices.Equal(got.atUnix, want.atUnix):
		return "atUnix column"
	case !slices.Equal(got.minOfDay, want.minOfDay):
		return "minOfDay column"
	case !slices.Equal(got.createdOff, want.createdOff) || !slices.Equal(got.createdIdx, want.createdIdx):
		return "created index"
	case !slices.Equal(got.receivedOff, want.receivedOff) || !slices.Equal(got.receivedIdx, want.receivedIdx):
		return "received index"
	case !reflect.DeepEqual(got.Graph, want.Graph):
		return "graph"
	case got.MemoryBytes() != want.MemoryBytes():
		return "MemoryBytes"
	case got.Name != want.Name:
		return "name"
	}
	return ""
}

// fusedCase is a quick.Generator over small synthesis configs of both graph
// kinds, alternating between a dense one-day horizon, where many rows share a
// second, and a sparse one of up to maxDays days. Low degrees leave some users
// with nobody to address and some with one target. Half the cases shrink the
// row loop's chunks to a few rows, so chunk boundaries fall inside users'
// activities and between permutations.
type fusedCase struct {
	cfg   SynthConfig
	dense bool
	chunk int // chunkRows for the case
}

func (fusedCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := fusedCase{dense: r.Intn(2) == 0, chunk: chunkRows}
	if r.Intn(2) == 0 {
		c.chunk = 1 + r.Intn(40)
	}
	c.cfg = SynthConfig{
		Name:                "quick",
		Directed:            r.Intn(2) == 0,
		Users:               20 + r.Intn(60),
		MeanDegree:          1 + 4*r.Float64(),
		SigmaDegree:         r.Float64(),
		MeanActivities:      12,
		SigmaActivities:     1.2,
		Days:                1 + r.Intn(maxDays),
		AffinityZipfS:       float64(r.Intn(3)) * 0.6,
		DiurnalSigmaMinutes: 60,
		UniformFraction:     0.1,
		Seed:                r.Int63(),
	}
	if c.dense {
		c.cfg.Users = 60 + r.Intn(40)
		c.cfg.MeanActivities = 600
		c.cfg.SigmaActivities = 1.5
		c.cfg.Days = 1
	}
	return reflect.ValueOf(c)
}

// withChunkRows runs f with the row loop's chunks holding rows activities.
func withChunkRows(rows int, f func()) {
	defer func(was int) { chunkRows = was }(chunkRows)
	chunkRows = rows
	f()
}

// TestQuickFusedSynthesisMatchesFilter: filter-aware generation equals the
// unfused reference followed by FilterMinActivity — column for column, index
// for index, graph for graph, and in MemoryBytes, so no backing array carries
// slack — for thresholds that keep everyone with an activity, drop a few,
// drop many, and drop everyone; and with no threshold it equals the
// reference itself. The cases cover users with no target, users with one
// (no Zipf draw), and users whose activities straddle a chunk of the row
// loop's ring: more activities than a chunk holds cannot fit in one.
func TestQuickFusedSynthesisMatchesFilter(t *testing.T) {
	var sawDense, sawSparse, sawNoTargets, sawOneTarget, sawStraddle, sawDropped bool
	prop := func(c fusedCase) bool {
		ref := referenceSynthesize(c.cfg)
		if c.dense {
			sawDense = true
		} else {
			sawSparse = true
		}
		for u := 0; u < ref.NumUsers(); u++ {
			created := len(ref.CreatedIdx(socialgraph.UserID(u)))
			switch len(activityTargets(ref.Graph, socialgraph.UserID(u))) {
			case 0:
				sawNoTargets = true
			case 1:
				sawOneTarget = sawOneTarget || created > 0
			}
			sawStraddle = sawStraddle || created > c.chunk
		}
		ok := true
		withChunkRows(c.chunk, func() { ok = fusedMatches(t, c, ref, &sawDropped) })
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
	if !sawDense || !sawSparse || !sawNoTargets || !sawOneTarget || !sawStraddle || !sawDropped {
		t.Errorf("generator coverage: dense=%v sparse=%v userWithoutTargets=%v userWithOneTarget=%v straddle=%v partialFilter=%v, want all true",
			sawDense, sawSparse, sawNoTargets, sawOneTarget, sawStraddle, sawDropped)
	}
}

// fusedMatches checks one case of TestQuickFusedSynthesisMatchesFilter
// against its reference, and notes whether a threshold dropped some users
// but not all.
func fusedMatches(t *testing.T, c fusedCase, ref *Dataset, sawDropped *bool) bool {
	for _, min := range []int{-1, 0} {
		got, err := synthesize(c.cfg, min)
		if err != nil {
			t.Logf("synthesize(%+v, %d): %v", c.cfg, min, err)
			return false
		}
		if part := diffDatasets(got, ref); part != "" {
			t.Logf("%+v chunk=%d min=%d: %s differs from the unfused reference", c.cfg, c.chunk, min, part)
			return false
		}
	}
	for _, min := range []int{1, 2, 10, int(c.cfg.MeanActivities), 100001} {
		got, err := synthesize(c.cfg, min)
		if err != nil {
			t.Logf("synthesize(%+v, %d): %v", c.cfg, min, err)
			return false
		}
		want := ref.FilterMinActivity(min)
		if want.NumUsers() < ref.NumUsers() && want.NumUsers() > 0 {
			*sawDropped = true
		}
		if part := diffDatasets(got, want); part != "" {
			t.Logf("%+v chunk=%d min=%d: %s differs from reference + FilterMinActivity", c.cfg, c.chunk, min, part)
			return false
		}
	}
	return true
}

// TestSynthesizeCalibratedMatchesTwoStep pins the public entry points against
// each other at a size where the paper's threshold drops users: the
// calibrated construction (0 = the paper's threshold) is Synthesize followed
// by FilterMinActivity, and a negative threshold is Synthesize alone.
func TestSynthesizeCalibratedMatchesTwoStep(t *testing.T) {
	for _, name := range []string{"facebook", "twitter"} {
		cfg := DefaultFacebookConfig(900)
		if name == "twitter" {
			cfg = DefaultTwitterConfig(900)
		}
		cfg.Seed = 5
		raw := MustSynthesize(cfg)
		want := raw.FilterMinActivity(PaperMinActivity)
		if want.NumUsers() == raw.NumUsers() {
			t.Fatalf("%s: the paper threshold dropped nobody; the case is vacuous", name)
		}
		got, err := SynthesizeCalibrated(name, 900, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if part := diffDatasets(got, want); part != "" {
			t.Errorf("%s: calibrated %s differs from Synthesize + FilterMinActivity", name, part)
		}
		unfiltered, err := SynthesizeCalibrated(name, 900, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		if part := diffDatasets(unfiltered, raw); part != "" {
			t.Errorf("%s: unfiltered calibrated %s differs from Synthesize", name, part)
		}
	}
}

// TestSynthesisIndependentOfGOMAXPROCS: the fan-out passes share no output,
// so one core and four produce the same dataset, on a dense one-day horizon
// and on the calibrated ones.
func TestSynthesisIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dense := DefaultFacebookConfig(600)
	dense.Days = 1
	for _, cfg := range []SynthConfig{dense, DefaultFacebookConfig(400), DefaultTwitterConfig(400)} {
		runtime.GOMAXPROCS(1)
		one, err := synthesize(cfg, PaperMinActivity)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		four, err := synthesize(cfg, PaperMinActivity)
		if err != nil {
			t.Fatal(err)
		}
		if part := diffDatasets(four, one); part != "" {
			t.Errorf("%s (days=%d): %s differs between GOMAXPROCS 1 and 4", cfg.Name, cfg.Days, part)
		}
	}
}
