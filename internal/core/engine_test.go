package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/mathrand"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// testDataset builds a small Facebook-like dataset with plenty of degree-10
// users so degree-bucketed sweeps have a population to average over.
func testDataset(t testing.TB) *trace.Dataset {
	t.Helper()
	cfg := trace.DefaultFacebookConfig(500)
	cfg.MeanDegree = 12
	cfg.SigmaDegree = 0.6
	cfg.Seed = 33
	d := trace.MustSynthesize(cfg)
	if len(d.Graph.UsersWithDegree(10)) < 5 {
		t.Fatalf("test dataset has only %d degree-10 users", len(d.Graph.UsersWithDegree(10)))
	}
	return d
}

func runSweep(t testing.TB, ds *trace.Dataset, model onlinetime.Model, mode replica.Mode) *Result {
	t.Helper()
	res, err := Run(Config{
		Dataset:    ds,
		Model:      model,
		Mode:       mode,
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    2,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func policyIndex(t testing.TB, res *Result, name string) int {
	t.Helper()
	for i, p := range res.Policies {
		if p == name {
			return i
		}
	}
	t.Fatalf("policy %q not in result %v", name, res.Policies)
	return -1
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); !errors.Is(err, ErrNoDataset) {
		t.Errorf("empty config err = %v, want ErrNoDataset", err)
	}
	ds := testDataset(t)
	if _, err := Run(Config{Dataset: ds, UserDegree: 499}); !errors.Is(err, ErrNoUsers) {
		t.Errorf("absurd degree err = %v, want ErrNoUsers", err)
	}
	// Neither Users nor a user degree: there is no default population.
	for _, d := range []int{0, -1} {
		if _, err := Run(Config{Dataset: ds, UserDegree: d}); !errors.Is(err, ErrNoUsers) {
			t.Errorf("user degree %d: err = %v, want ErrNoUsers", d, err)
		}
	}
}

func TestRunFillsDefaults(t *testing.T) {
	ds := testDataset(t)
	res, err := Run(Config{Dataset: ds, UserDegree: 10, MaxDegree: 2, Repeats: 1, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Policies) != 3 {
		t.Errorf("default policies = %v", res.Policies)
	}
	if len(res.Degrees) != 3 || res.Degrees[0] != 0 || res.Degrees[2] != 2 {
		t.Errorf("degrees = %v", res.Degrees)
	}
	if res.Users == 0 || res.ModelName != "Sporadic" || res.Mode != replica.ConRep {
		t.Errorf("result meta = %+v", res)
	}
}

// TestAvailabilityMonotoneInDegree: each degree's selection is a prefix of
// the next, so no mean that only grows with the replica set — availability,
// both AoD metrics and the effective replica count — falls as k grows.
func TestAvailabilityMonotoneInDegree(t *testing.T) {
	ds := testDataset(t)
	res := runSweep(t, ds, onlinetime.Sporadic{}, replica.ConRep)
	for _, m := range []Metric{MetricAvailability, MetricAoDTime, MetricAoDActivity, MetricEffectiveReplicas} {
		for pi := range res.Policies {
			prev := -1.0
			for di := range res.Degrees {
				v := res.Value(pi, di, m)
				if v < prev-1e-9 {
					t.Errorf("%s: %s not monotone at degree %d: %v < %v",
						res.Policies[pi], m, di, v, prev)
				}
				prev = v
			}
		}
	}
}

func TestMaxAvDominatesAtEveryDegree(t *testing.T) {
	ds := testDataset(t)
	for _, model := range []onlinetime.Model{onlinetime.Sporadic{}, onlinetime.FixedLength{Hours: 8}} {
		res := runSweep(t, ds, model, replica.ConRep)
		ma := policyIndex(t, res, "MaxAv")
		rd := policyIndex(t, res, "Random")
		for di := range res.Degrees {
			av := res.Value(ma, di, MetricAvailability)
			rv := res.Value(rd, di, MetricAvailability)
			if av+1e-9 < rv {
				t.Errorf("%s: MaxAv availability %.4f below Random %.4f at degree %d",
					model.Name(), av, rv, di)
			}
		}
	}
}

func TestAoDTimeApproachesOneForMaxAv(t *testing.T) {
	// The paper reports AoD-time reaching 1.0 with ~5 replicas for MaxAv
	// (Fig. 5a). With all 10 replicas it must be essentially 1 regardless
	// of online model, because MaxAv covers the friends' union.
	ds := testDataset(t)
	res := runSweep(t, ds, onlinetime.Sporadic{}, replica.ConRep)
	ma := policyIndex(t, res, "MaxAv")
	if v := res.Last(ma, MetricAoDTime); v < 0.95 {
		t.Errorf("MaxAv AoD-time at degree 10 = %.4f, want ≈1", v)
	}
}

func TestDelayGrowsWithReplicationDegree(t *testing.T) {
	// Fig. 7: the worst-case propagation delay increases with the number of
	// replicas. Compare degree 1 against degree 10 for each policy.
	ds := testDataset(t)
	res := runSweep(t, ds, onlinetime.Sporadic{}, replica.ConRep)
	for pi, name := range res.Policies {
		lo := res.Value(pi, 1, MetricDelayHours)
		hi := res.Last(pi, MetricDelayHours)
		if hi+1e-9 < lo {
			t.Errorf("%s: delay decreased from %.2fh (deg 1) to %.2fh (deg 10)", name, lo, hi)
		}
	}
}

func TestSporadicDelayBelowFixed8(t *testing.T) {
	// Fig. 7 discussion: Sporadic's intermittent connectivity lets replicas
	// contact each other more often, so its delay is lower than the
	// continuous models'.
	ds := testDataset(t)
	spor := runSweep(t, ds, onlinetime.Sporadic{}, replica.ConRep)
	fixed := runSweep(t, ds, onlinetime.FixedLength{Hours: 8}, replica.ConRep)
	ma := policyIndex(t, spor, "MaxAv")
	if s, f := spor.Last(ma, MetricDelayHours), fixed.Last(ma, MetricDelayHours); s >= f {
		t.Errorf("Sporadic delay %.2fh should be below FixedLength(8h) %.2fh", s, f)
	}
}

func TestUnconRepAvailabilityAtLeastConRep(t *testing.T) {
	// Fig. 4: without the connectivity constraint the achievable
	// availability is higher (or equal), since replica locations are free.
	ds := testDataset(t)
	model := onlinetime.FixedLength{Hours: 2}
	con := runSweep(t, ds, model, replica.ConRep)
	unc := runSweep(t, ds, model, replica.UnconRep)
	ma := policyIndex(t, con, "MaxAv")
	for di := range con.Degrees {
		c := con.Value(ma, di, MetricAvailability)
		u := unc.Value(ma, di, MetricAvailability)
		if u+1e-9 < c {
			t.Errorf("degree %d: UnconRep availability %.4f below ConRep %.4f", di, u, c)
		}
	}
}

// TestUnconRepAtUserDegreeIsForced: under UnconRep at a budget of the
// owner's degree d, MostActive and Random place a replica on each of the d
// friends, and MaxAv's replicas cover the same minutes (it stops once no
// friend adds one). So at k = d the three policies' availability and
// AoD-time are equal, and at least ConRep's: the claims table counts these
// points as forced.
func TestUnconRepAtUserDegreeIsForced(t *testing.T) {
	ds := testDataset(t)
	for _, model := range []onlinetime.Model{onlinetime.FixedLength{Hours: 2}, onlinetime.FixedLength{Hours: 8}} {
		table := onlinetime.ComputeTable(model, ds, 3, 1)
		bitmaps := table.Bitmaps()
		for _, d := range []int{1, 4, 10} {
			owners := ds.Graph.UsersWithDegree(d)
			if len(owners) == 0 {
				t.Fatalf("no degree-%d owner", d)
			}
			pl := replica.NewPlacer(ds, bitmaps, replica.UnconRep, d, replica.DefaultPolicies()...)
			rng := rand.New(rand.NewSource(1))
			for _, u := range owners {
				in := pl.Input(u)
				var all interval.Bitmap
				all.CopyFrom(&bitmaps[u])
				for _, f := range in.Candidates {
					all.OrWith(&bitmaps[f])
				}
				for _, p := range replica.DefaultPolicies() {
					seq := p.Select(in, rng)
					var covered interval.Bitmap
					covered.CopyFrom(&bitmaps[u])
					for _, f := range seq {
						covered.OrWith(&bitmaps[f])
					}
					friends := reflect.DeepEqual(slices.Sorted(slices.Values(seq)), slices.Sorted(slices.Values(in.Candidates)))
					if !covered.Equal(&all) || p.Name() != "MaxAv" && !friends {
						t.Errorf("%s, degree %d, owner %d: %s selects %v of friends %v", model.Name(), d, u, p.Name(), seq, in.Candidates)
					}
				}
			}
			sweep := func(mode replica.Mode) *Result {
				res, err := Run(Config{Dataset: ds, Model: model, Mode: mode, MaxDegree: d, UserDegree: d, Seed: 7, Schedules: []*onlinetime.Table{table}})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			unc, con := sweep(replica.UnconRep), sweep(replica.ConRep)
			for pi, p := range unc.Policies {
				for _, m := range []Metric{MetricAvailability, MetricAoDTime} {
					if got, want := unc.Last(pi, m), unc.Last(0, m); got != want {
						t.Errorf("%s, degree %d: UnconRep %s %s %v at k = d, %s %v", model.Name(), d, p, m, got, unc.Policies[0], want)
					}
				}
				if u, c := unc.Last(pi, MetricAvailability), con.Last(pi, MetricAvailability); u < c {
					t.Errorf("%s, degree %d: %s UnconRep availability %v below ConRep %v at k = d", model.Name(), d, p, u, c)
				}
			}
		}
	}
}

func TestEffectiveReplicasBoundedByBudget(t *testing.T) {
	ds := testDataset(t)
	res := runSweep(t, ds, onlinetime.FixedLength{Hours: 2}, replica.ConRep)
	for pi := range res.Policies {
		for di, d := range res.Degrees {
			eff := res.Value(pi, di, MetricEffectiveReplicas)
			if eff > float64(d)+1e-9 {
				t.Errorf("%s: effective replicas %.2f exceed budget %d", res.Policies[pi], eff, d)
			}
		}
	}
	// With a 2-hour window, ConRep frequently cannot find connected
	// replicas, so MaxAv should use noticeably fewer than the budget
	// (paper §V-A1 notes exactly this).
	ma := policyIndex(t, res, "MaxAv")
	if eff := res.Last(ma, MetricEffectiveReplicas); eff >= 10 {
		t.Errorf("ConRep FixedLength(2h) used the full budget (%.2f); expected fewer", eff)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// Per-user samples are reduced in user order regardless of which worker
	// computed them, so results must be bit-identical — not merely close —
	// across worker counts and across repeated runs at the same count.
	ds := testDataset(t)
	base := Config{
		Dataset: ds, Model: onlinetime.RandomLength{}, Mode: replica.ConRep,
		MaxDegree: 6, UserDegree: 10, Repeats: 2, Seed: 99,
	}
	run := func(workers int) *Result {
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{1, 3, 8} {
		got := run(workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("result with %d workers differs bitwise from 1-worker reference", workers)
		}
	}
}

func TestRunUsesPrecomputedSchedules(t *testing.T) {
	ds := testDataset(t)
	base := Config{
		Dataset: ds, Model: onlinetime.Sporadic{}, Mode: replica.ConRep,
		MaxDegree: 4, UserDegree: 10, Repeats: 2, Seed: 5,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Precomputing the schedule tables exactly as Run derives them must
	// reproduce the plain result bit for bit.
	pre := base
	for rep := 0; rep < base.Repeats; rep++ {
		pre.Schedules = append(pre.Schedules,
			base.Model.BuildTable(ds, mathrand.New(int64(mathrand.Mix(uint64(base.Seed), uint64(rep)))), 1, nil))
	}
	cached, err := Run(pre)
	if err != nil {
		t.Fatalf("Run with schedules: %v", err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Error("precomputed schedules changed the result")
	}
	// Different schedules must change the result (the override is honoured).
	alt := base
	for rep := 0; rep < base.Repeats; rep++ {
		alt.Schedules = append(alt.Schedules,
			base.Model.BuildTable(ds, mathrand.New(int64(mathrand.Mix(777, uint64(rep)))), 1, nil))
	}
	shifted, err := Run(alt)
	if err != nil {
		t.Fatalf("Run with alt schedules: %v", err)
	}
	if reflect.DeepEqual(plain, shifted) {
		t.Error("alternate schedules were ignored")
	}
}

// degreeWith returns the smallest user degree of ds whose population size
// satisfies ok.
func degreeWith(t *testing.T, ds *trace.Dataset, ok func(users int) bool) int {
	t.Helper()
	for k, n := range ds.Graph.DegreeHistogram() {
		if k > 0 && ok(n) {
			return k
		}
	}
	t.Fatal("no user degree has a population of the wanted size")
	return 0
}

func TestMetricStrings(t *testing.T) {
	tests := []struct {
		m    Metric
		want string
	}{
		{MetricAvailability, "availability"},
		{MetricAoDTime, "availability-on-demand-time"},
		{MetricAoDActivity, "availability-on-demand-activity"},
		{MetricDelayHours, "delay (in hours)"},
		{MetricEffectiveReplicas, "effective replicas"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Metric.String = %q, want %q", got, tt.want)
		}
	}
}

func TestMixIsStable(t *testing.T) {
	a := int64(mathrand.Mix(1, 2, 3))
	b := int64(mathrand.Mix(1, 2, 3))
	c := int64(mathrand.Mix(3, 2, 1))
	if a != b {
		t.Error("mix must be deterministic")
	}
	if a == c {
		t.Error("mix should depend on argument order")
	}
}

func TestRunRejectsMisshapenSchedules(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{
		Dataset: ds, Model: onlinetime.Sporadic{}, MaxDegree: 2, UserDegree: 10,
		Repeats: 1, Seed: 1,
		Schedules: []*onlinetime.Table{onlinetime.NewTable(ds.NumUsers() - 1)},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("undersized schedule slice accepted; would panic in a worker")
	}
}

// TestSweepWorkerPoolCappedByChunks pins the worker count of the sweep's
// fan-out through telemetry: every sweep worker reports exactly one busy span
// per repetition. With more chunks than workers spans == workers × repeats (a
// per-chunk report would show chunks × repeats, and lose the sum-against-max
// imbalance signal); with fewer chunks than workers the sweep runs one worker
// per chunk, so a regression that starts idle workers shows up as extra spans.
func TestSweepWorkerPoolCappedByChunks(t *testing.T) {
	ds := testDataset(t)
	const repeats = 2
	for _, tc := range []struct {
		name       string
		userDegree int
		workers    int
	}{
		{"more chunks than workers", 10, 2},
		{"one chunk, eight workers", degreeWith(t, ds, func(n int) bool { return n > 0 && n <= sweepChunkSize }), 8},
	} {
		users := len(ds.Graph.UsersWithDegree(tc.userDegree))
		nChunks := (users + sweepChunkSize - 1) / sweepChunkSize
		if tc.userDegree == 10 && nChunks <= tc.workers {
			t.Fatalf("%s: %d users make only %d chunks", tc.name, users, nChunks)
		}
		collector := obs.NewCollector()
		co := collector.StartCell(tc.name, 0)
		_, err := Run(Config{
			Dataset: ds, UserDegree: tc.userDegree, MaxDegree: 2, Repeats: repeats, Seed: 3,
			Workers: tc.workers, Obs: co,
		})
		co.Done()
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		rep := collector.Report("test")
		if len(rep.Cells) != 1 || rep.Cells[0].Sweep == nil {
			t.Fatalf("%s: telemetry report missing sweep stats: %+v", tc.name, rep.Cells)
		}
		sweep := rep.Cells[0].Sweep
		if want := int64(min(tc.workers, nChunks) * repeats); sweep.WorkerSpans != want {
			t.Errorf("%s: WorkerSpans = %d, want min(workers, chunks) × repeats = %d", tc.name, sweep.WorkerSpans, want)
		}
		if want := int64(nChunks * repeats); sweep.Chunks != want {
			t.Errorf("%s: Chunks = %d, want %d", tc.name, sweep.Chunks, want)
		}
	}
}

// TestSweepEqualsInOrderFold pins what the worker pool must reproduce: one
// goroutine folding the users in list order, a fresh grid per 16-user chunk,
// chunk grids merged in chunk order. The population spans more than two
// chunks and is not a multiple of the chunk size, so the short tail chunk is
// covered.
func TestSweepEqualsInOrderFold(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{
		Dataset: ds, Model: onlinetime.RandomLength{}, Mode: replica.ConRep,
		MaxDegree: 5, Repeats: 1, Seed: 5,
		UserDegree: degreeWith(t, ds, func(n int) bool { return n > 2*sweepChunkSize && n%sweepChunkSize != 0 }),
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	const rep = 0
	table := cfg.table(rep)

	want := newGrid(len(cfg.Policies), cfg.MaxDegree+1)
	var scratch sweepScratch
	pl := replica.NewPlacer(ds, table.Bitmaps(), cfg.Mode, cfg.MaxDegree, cfg.Policies...)
	for lo := 0; lo < len(cfg.users); lo += 16 {
		g := newGrid(len(cfg.Policies), cfg.MaxDegree+1)
		for _, u := range cfg.users[lo:min(lo+16, len(cfg.users))] {
			sweepUser(cfg, pl, rep, make([]bool, len(cfg.Policies)), u, g, &scratch)
		}
		mergeGrids(want, g)
	}

	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		got, err := sweepOnce(cfg, table, rep, nil)
		if err != nil {
			t.Fatalf("sweepOnce(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sweep with %d workers differs bitwise from the in-order fold", workers)
		}
	}
}
