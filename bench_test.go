// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation section (Figs. 2–11) plus the extension experiments X1–X4 and
// the matrix-harness benches. Each benchmark regenerates its figure end to
// end (placement, metric computation, aggregation over the analysis
// population) and reports the figure's key values via b.ReportMetric so
// `go test -bench=. -benchmem` prints the reproduced numbers.
//
// Benchmarks run at a reduced dataset scale (1200 users, 1 repeat) so the
// whole harness completes in minutes; cmd/dosn-sim regenerates the same
// figures at any scale.
package dosn_test

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"dosn"
	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/harness"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

const (
	benchUsers   = 1200
	benchSeed    = 42
	benchRepeats = 1
)

var (
	benchOnce sync.Once
	benchFB   *dosn.Dataset
	benchErr  error
)

// benchSpec is the base of the figure benchmarks: both calibrated datasets
// at benchUsers, the paper's sweep bounds, benchRepeats and benchSeed.
func benchSpec() dosn.MatrixSpec {
	return dosn.MatrixSpec{
		Datasets:   []dosn.MatrixDataset{{Name: "facebook", Users: benchUsers}, {Name: "twitter", Users: benchUsers}},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
}

// facebook lazily synthesizes the Facebook dataset of benchSpec, which the
// benchmarks that call a runner directly share.
func facebook(b *testing.B) *dosn.Dataset {
	b.Helper()
	benchOnce.Do(func() { benchFB, benchErr = dosn.Facebook(benchUsers, 1) })
	if benchErr != nil {
		b.Fatalf("synthesize: %v", benchErr)
	}
	return benchFB
}

// figures renders the figures with the given IDs through the figure door
// over benchSpec; each call synthesizes its datasets.
func figures(b *testing.B, ids ...string) []dosn.Figure {
	b.Helper()
	figs, err := dosn.Figures(benchSpec(), ids)
	if err != nil {
		b.Fatalf("figures %v: %v", ids, err)
	}
	return figs
}

// figValue extracts series sLabel's y at x from a figure (for ReportMetric).
func figValue(b *testing.B, fig dosn.Figure, label string, xi int) float64 {
	b.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			if xi < 0 {
				xi = len(s.Y) - 1
			}
			if xi < len(s.Y) {
				return s.Y[xi]
			}
		}
	}
	return -1
}

// benchPanels regenerates a set of panels b.N times through the figure door
// and reports the requested headline value from the first panel. Each
// iteration synthesizes the dataset its panels read as well as running their
// cells, so its ns/op measures the door end to end and is not comparable
// with figure timings recorded when these benchmarks reused one dataset;
// BenchmarkMatrixSingleCell and the BenchmarkMatrixSweep* benchmarks measure
// the sweeps alone.
func benchPanels(b *testing.B, ids []string, reportSeries, metricName string, xi int) {
	b.ReportAllocs()
	b.ResetTimer()
	var headline float64
	for i := 0; i < b.N; i++ {
		headline = figValue(b, figures(b, ids...)[0], reportSeries, xi)
	}
	b.ReportMetric(headline, metricName)
}

// --- Fig. 2: degree distribution -----------------------------------------

// BenchmarkFig02DegreeDistribution renders Fig. 2 through the figure door;
// each iteration synthesizes both datasets, which is nearly all of its cost.
func BenchmarkFig02DegreeDistribution(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var users float64
	for i := 0; i < b.N; i++ {
		fig := figures(b, "fig2")[0]
		users = 0
		for _, y := range fig.Series[0].Y {
			users += y
		}
	}
	b.ReportMetric(users, "fb_users")
}

// --- Figs. 3–7: Facebook sweeps -------------------------------------------

func BenchmarkFig03FacebookConRepAvailability(b *testing.B) {
	benchPanels(b, []string{"fig3a", "fig3b", "fig3c", "fig3d"}, "MaxAv", "maxav_avail_deg5", 5)
}

func BenchmarkFig04FacebookUnconRepAvailability(b *testing.B) {
	benchPanels(b, []string{"fig4a", "fig4b"}, "MaxAv", "maxav_avail_deg5", 5)
}

func BenchmarkFig05FacebookAoDTime(b *testing.B) {
	benchPanels(b, []string{"fig5a", "fig5b", "fig5c", "fig5d"}, "MaxAv", "maxav_aodtime_deg5", 5)
}

func BenchmarkFig06FacebookAoDActivity(b *testing.B) {
	benchPanels(b, []string{"fig6a", "fig6b", "fig6c", "fig6d"}, "MaxAv", "maxav_aodact_deg5", 5)
}

func BenchmarkFig07FacebookDelay(b *testing.B) {
	benchPanels(b, []string{"fig7a", "fig7b", "fig7c", "fig7d"}, "MaxAv", "maxav_delay_h_deg10", -1)
}

// --- Fig. 8: Sporadic session-length sweep --------------------------------

func BenchmarkFig08SessionLength(b *testing.B) {
	benchPanels(b, []string{"fig8a", "fig8b", "fig8c", "fig8d"}, "MaxAv", "maxav_avail_longest", -1)
}

// --- Fig. 9: user-degree sweep ---------------------------------------------

func BenchmarkFig09UserDegree(b *testing.B) {
	benchPanels(b, []string{"fig9a", "fig9b"}, "MaxAv", "maxav_avail_deg10", -1)
}

// --- Figs. 10–11: Twitter sweeps -------------------------------------------

func BenchmarkFig10TwitterConRepAvailability(b *testing.B) {
	benchPanels(b, []string{"fig10a", "fig10b", "fig10c", "fig10d"}, "MaxAv", "maxav_avail_deg5", 5)
}

func BenchmarkFig11TwitterAoDTime(b *testing.B) {
	benchPanels(b, []string{"fig11a", "fig11b", "fig11c", "fig11d"}, "MaxAv", "maxav_aodtime_deg5", 5)
}

// --- X1/X2: protocol-level validation --------------------------------------

// scheduleTable is the schedule table of every user of fb under the model,
// seeded with benchSeed, which the protocol benches read.
func scheduleTable(fb *dosn.Dataset, m dosn.OnlineModel) *dosn.ScheduleTable {
	return dosn.BuildScheduleTable(m, fb, benchSeed, runtime.NumCPU())
}

func BenchmarkX1ProtocolValidation(b *testing.B) {
	fb := facebook(b)
	schedules := scheduleTable(fb, dosn.NewSporadic(0))
	b.ReportAllocs()
	b.ResetTimer()
	var measured, analytic float64
	for i := 0; i < b.N; i++ {
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset:    fb,
			Schedules:  schedules,
			UserDegree: 10,
			MaxWalls:   15,
			Days:       7,
			Seed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		measured = res.MeasuredMaxHours
		analytic = res.AnalyticWorstHours
	}
	b.ReportMetric(measured, "measured_max_h")
	b.ReportMetric(analytic, "analytic_bound_h")
}

func BenchmarkX2ObservedDelay(b *testing.B) {
	fb := facebook(b)
	schedules := scheduleTable(fb, dosn.NewFixedLength(8))
	b.ReportAllocs()
	b.ResetTimer()
	var actual, observed float64
	for i := 0; i < b.N; i++ {
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset:    fb,
			Schedules:  schedules,
			UserDegree: 10,
			MaxWalls:   15,
			Days:       7,
			Seed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		actual = res.MeasuredPairHours
		observed = res.ObservedPairHours
	}
	b.ReportMetric(actual, "actual_h")
	b.ReportMetric(observed, "observed_h")
}

// --- X3: effective replicas under ConRep -----------------------------------

func BenchmarkX3EffectiveReplicas(b *testing.B) {
	fb := facebook(b)
	b.ReportAllocs()
	b.ResetTimer()
	var eff float64
	for i := 0; i < b.N; i++ {
		res, err := dosn.RunSweep(dosn.SweepConfig{
			Dataset:    fb,
			Model:      dosn.NewFixedLength(2),
			Mode:       dosn.ConRep,
			MaxDegree:  10,
			UserDegree: 10,
			Repeats:    benchRepeats,
			Seed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		eff = res.Last(0, dosn.MetricEffectiveReplicas)
	}
	b.ReportMetric(eff, "maxav_effective_at_budget10")
}

// --- X4: replica-host load balance ------------------------------------------

// BenchmarkX4ReplicaLoad renders X4 through the figure door; each
// iteration synthesizes the Facebook dataset before the experiment runs.
func BenchmarkX4ReplicaLoad(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var cvRandom, cvActive float64
	for i := 0; i < b.N; i++ {
		fig := figures(b, "experiment-loadbalance")[0]
		cvRandom = figValue(b, fig, "Random", 2) // x = 2 is the cv
		cvActive = figValue(b, fig, "MostActive", 2)
	}
	b.ReportMetric(cvRandom, "cv_random")
	b.ReportMetric(cvActive, "cv_mostactive")
}

// --- A1–A3: ablation benches ------------------------------------------------

// BenchmarkA1ObjectiveAblation renders A1 through the figure door; like
// benchPanels, each iteration synthesizes the Facebook dataset before its
// cell runs.
func BenchmarkA1ObjectiveAblation(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var availObj, actObj float64
	for i := 0; i < b.N; i++ {
		fig := figures(b, "ablation-objective-aodact")[0]
		availObj = fig.Series[0].Y[3] // MaxAv at degree 3
		actObj = fig.Series[1].Y[3]   // MaxAv(activity)
	}
	b.ReportMetric(availObj, "maxav_aodact_deg3")
	b.ReportMetric(actObj, "maxav_activity_aodact_deg3")
}

// BenchmarkA2HistorySplit renders A2 through the figure door, as A1.
func BenchmarkA2HistorySplit(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var hist, oracle float64
	for i := 0; i < b.N; i++ {
		fig := figures(b, "ablation-history")[0]
		hist = figValue(b, fig, "AoD-activity", 0)
		oracle = figValue(b, fig, "AoD-activity", 1)
	}
	b.ReportMetric(hist, "historical_aodact")
	b.ReportMetric(oracle, "oracle_aodact")
}

// BenchmarkA3Churn renders A3 through the figure door, as A1; its failure
// draws repeat benchRepeats times.
func BenchmarkA3Churn(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var maxavAfter3 float64
	for i := 0; i < b.N; i++ {
		maxavAfter3 = figValue(b, figures(b, "ablation-churn")[0], "MaxAv", 3)
	}
	b.ReportMetric(maxavAfter3, "maxav_avail_after_3_failures")
}

func BenchmarkA4EagerPushAblation(b *testing.B) {
	fb := facebook(b)
	schedules := scheduleTable(fb, dosn.NewSporadic(0))
	b.ReportAllocs()
	b.ResetTimer()
	var eagerDelay, lazyDelay float64
	for i := 0; i < b.N; i++ {
		eager, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset: fb, Schedules: schedules, UserDegree: 10, MaxWalls: 10, Days: 5, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		lazy, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset: fb, Schedules: schedules, UserDegree: 10, MaxWalls: 10, Days: 5, Seed: benchSeed,
			DisableEagerPush: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		eagerDelay = eager.MeasuredPairHours
		lazyDelay = lazy.MeasuredPairHours
	}
	b.ReportMetric(eagerDelay, "eager_pair_h")
	b.ReportMetric(lazyDelay, "session_only_pair_h")
}

func BenchmarkX5ReadAvailability(b *testing.B) {
	fb := facebook(b)
	schedules := scheduleTable(fb, dosn.NewSporadic(0))
	b.ReportAllocs()
	b.ResetTimer()
	var measured, analytic float64
	for i := 0; i < b.N; i++ {
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset: fb, Schedules: schedules, UserDegree: 10, MaxWalls: 15, Days: 7, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		measured = res.MeasuredAoDTime
		analytic = res.AnalyticAoDTime
	}
	b.ReportMetric(measured, "measured_aodtime")
	b.ReportMetric(analytic, "analytic_aodtime")
}

// --- Matrix harness benchmarks ----------------------------------------------
//
// BenchmarkMatrix* exercise internal/harness end to end and append their
// headline numbers to BENCH_matrix.json, establishing the performance
// trajectory every future sharding/caching/backend PR is measured against.

// benchMatrixSpec is the bench-scale matrix: both datasets, two contrasting
// models, both modes (8 cells).
func benchMatrixSpec() harness.MatrixSpec {
	return harness.MatrixSpec{
		Datasets: []harness.DatasetSpec{
			{Name: "facebook", Users: benchUsers, Seed: 1},
			{Name: "twitter", Users: benchUsers, Seed: 2},
		},
		Models:     []harness.ModelSpec{harness.Sporadic(), harness.FixedLength(8)},
		Modes:      []string{"ConRep", "UnconRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
}

var (
	benchMatrixMu      sync.Mutex
	benchMatrixRecords = map[string]map[string]float64{}
)

// allocMeter measures heap bytes allocated across a benchmark loop so the
// per-op figure can be recorded in BENCH_matrix.json (testing's -benchmem
// B/op is not programmatically accessible). Start it right before the timed
// loop and read perOp after it.
type allocMeter struct{ before uint64 }

func startAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{before: ms.TotalAlloc}
}

func (m allocMeter) perOp(n int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-m.before) / float64(n)
}

// recordMatrixBench merges one benchmark's headline metrics into
// BENCH_matrix.json. Existing entries are loaded first so a partial -bench
// run updates only the benchmarks it actually ran, preserving the rest of
// the committed baseline.
func recordMatrixBench(b *testing.B, name string, metrics map[string]float64) {
	b.Helper()
	benchMatrixMu.Lock()
	defer benchMatrixMu.Unlock()
	if len(benchMatrixRecords) == 0 {
		if prev, err := os.ReadFile("BENCH_matrix.json"); err == nil {
			// Best effort: a corrupt file is simply rebuilt from scratch.
			_ = json.Unmarshal(prev, &benchMatrixRecords)
		}
	}
	benchMatrixRecords[name] = metrics
	data, err := json.MarshalIndent(benchMatrixRecords, "", "  ")
	if err != nil {
		b.Fatalf("marshal BENCH_matrix.json: %v", err)
	}
	if err := os.WriteFile("BENCH_matrix.json", append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_matrix.json: %v", err)
	}
}

// BenchmarkMatrixEightCells runs the 8-cell bench matrix end to end
// (synthesis cached inside the run, schedules shared across modes).
func BenchmarkMatrixEightCells(b *testing.B) {
	spec := benchMatrixSpec()
	var m *harness.RunManifest
	var err error
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cell, ok := m.Cell("facebook", "Sporadic", "ConRep")
	if !ok {
		b.Fatal("facebook/Sporadic/ConRep missing")
	}
	avail5, _ := cell.Value("availability", 0, 5)
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(avail5, "maxav_avail_deg5")
	b.ReportMetric(nsPerCell, "ns/cell")
	recordMatrixBench(b, "MatrixEightCells", map[string]float64{
		"cells":               float64(len(m.Cells)),
		"ns_per_cell":         nsPerCell,
		"bytes_per_op":        meter.perOp(b.N),
		"schedule_cache_hits": float64(m.ScheduleCacheHits),
		"maxav_avail_deg5":    avail5,
	})
}

// BenchmarkMatrixFullPaper runs the complete 24-cell paper matrix
// ({fb,tw} × 6 models × 2 modes) at bench scale.
func BenchmarkMatrixFullPaper(b *testing.B) {
	spec := harness.PaperMatrix(benchUsers)
	spec.Repeats = benchRepeats
	var m *harness.RunManifest
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(float64(len(m.Cells)), "cells")
	b.ReportMetric(nsPerCell, "ns/cell")
	recordMatrixBench(b, "MatrixFullPaper", map[string]float64{
		"cells":               float64(len(m.Cells)),
		"ns_per_cell":         nsPerCell,
		"schedule_cache_hits": float64(m.ScheduleCacheHits),
	})
}

// BenchmarkMatrixSingleCell isolates per-cell cost (no cross-cell sharing).
func BenchmarkMatrixSingleCell(b *testing.B) {
	spec := benchMatrixSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = spec.Models[:1]
	spec.Modes = spec.Modes[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(spec, harness.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordMatrixBench(b, "MatrixSingleCell", map[string]float64{
		"ns_per_cell": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	})
}

// BenchmarkMatrixSweepMaxAvConRep isolates the per-cell *sweep* cost of the
// hottest matrix configuration — MaxAv placement under ConRep with Sporadic
// schedules — with the dataset synthesized and the schedules computed once
// outside the timed loop. This is the benchmark the interval-engine work is
// measured against: it exercises exactly the greedy set cover, connectivity
// checks, metric accumulation and update-propagation-delay computation of
// core.sweepUser, and nothing else.
func BenchmarkMatrixSweepMaxAvConRep(b *testing.B) {
	ds := facebook(b)
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := core.Config{
		Dataset:    ds,
		Model:      model,
		Mode:       replica.ConRep,
		Policies:   []replica.Policy{replica.MaxAv{}},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		Seed:       benchSeed,
		Schedules:  []*onlinetime.Table{table},
	}
	var res *core.Result
	var err error
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsPerCell, "ns/cell")
	b.ReportMetric(res.Value(0, 5, core.MetricAvailability), "maxav_avail_deg5")
	recordMatrixBench(b, "MatrixSweepMaxAvConRep", map[string]float64{
		"ns_per_cell":      nsPerCell,
		"bytes_per_op":     meter.perOp(b.N),
		"users":            float64(res.Users),
		"maxav_avail_deg5": res.Value(0, 5, core.MetricAvailability),
	})
}

// BenchmarkSweepUserKernel isolates the per-user degree loop — the fused
// one-pass kernel inside sweepUser (OrWithOverlapCount + incremental AoD +
// cached delay prefixes). Schedules are precomputed outside the timed loop
// and the pool runs a single worker over the degree-10 users, so ns/user
// is the kernel itself: policy selection plus MaxDegree+1 degree steps per
// policy. Recorded into BENCH_matrix.json; benchguard holds ns_per_user to
// within 2x of the committed baseline.
func BenchmarkSweepUserKernel(b *testing.B) {
	ds := facebook(b)
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := core.Config{
		Dataset:    ds,
		Model:      model,
		Mode:       replica.ConRep,
		UserDegree: 10,
		MaxDegree:  10,
		Repeats:    benchRepeats,
		Seed:       benchSeed,
		Workers:    1,
		Schedules:  []*onlinetime.Table{table},
	}
	var res *core.Result
	var err error
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerUser := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(res.Users)
	b.ReportMetric(nsPerUser, "ns/user")
	recordMatrixBench(b, "SweepUserKernel", map[string]float64{
		"ns_per_user":      nsPerUser,
		"bytes_per_op":     meter.perOp(b.N),
		"users":            float64(res.Users),
		"maxav_avail_deg5": res.Value(policyIdx(b, res, "MaxAv"), 5, core.MetricAvailability),
	})
}

// policyIdx locates a policy's row in a sweep result.
func policyIdx(b *testing.B, res *core.Result, name string) int {
	b.Helper()
	for i, p := range res.Policies {
		if p == name {
			return i
		}
	}
	b.Fatalf("policy %q not in result %v", name, res.Policies)
	return -1
}

// BenchmarkDHTLookup isolates the DHT routing hot path: ring construction
// outside the timed loop, then greedy finger-table lookups from rotating
// origins to rotating profile keys. ns/lookup and the mean hop count are
// recorded into BENCH_matrix.json; cmd/benchguard holds the per-lookup cost
// to within 2x of the committed baseline.
func BenchmarkDHTLookup(b *testing.B) {
	ring, err := dht.BuildRing(benchUsers, dht.Config{})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = ring.Key(socialgraph.UserID(i * 3 % benchUsers))
	}
	totalHops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := socialgraph.UserID(i * 7 % benchUsers)
		totalHops += ring.HopCount(from, keys[i%len(keys)])
	}
	b.StopTimer()
	nsPerLookup := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	meanHops := float64(totalHops) / float64(b.N)
	b.ReportMetric(meanHops, "hops/lookup")
	recordMatrixBench(b, "DHTLookup", map[string]float64{
		"ns_per_lookup": nsPerLookup,
		"mean_hops":     meanHops,
	})
}

// BenchmarkMatrixSweepSocialDHT mirrors BenchmarkMatrixSweepMaxAvConRep for
// the most expensive DHT configuration: SocialDHT placement (successor
// window ranking with social proximity + schedule overlap) under ConRep with
// Sporadic schedules, dataset/ring/schedules prepared outside the timed
// loop. It pins the cost of the architecture axis's hot path next to the
// friend-replica sweep it is compared against.
func BenchmarkMatrixSweepSocialDHT(b *testing.B) {
	ds := facebook(b)
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		b.Fatal(err)
	}
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := core.Config{
		Dataset:    ds,
		Model:      model,
		Mode:       replica.ConRep,
		Policies:   []replica.Policy{&dht.Placement{Ring: ring, Social: true, Graph: ds.Graph}},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		Seed:       benchSeed,
		Schedules:  []*onlinetime.Table{table},
	}
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsPerCell, "ns/cell")
	b.ReportMetric(res.Value(0, 5, core.MetricAvailability), "socialdht_avail_deg5")
	recordMatrixBench(b, "MatrixSweepSocialDHT", map[string]float64{
		"ns_per_cell":          nsPerCell,
		"users":                float64(res.Users),
		"socialdht_avail_deg5": res.Value(0, 5, core.MetricAvailability),
	})
}

// BenchmarkScheduleAllLarge isolates the schedule pipeline the arena table
// exists for: one Sporadic BuildTable over a large facebook dataset, dataset
// synthesis outside the timed loop. Under -short it runs at a reduced scale
// so CI can exercise (and benchguard can gate) the same code path; the
// recorded ns_per_user and bytes_per_user figures are per-user exactly so
// the gate compares across scales.
func BenchmarkScheduleAllLarge(b *testing.B) {
	users := 100_000
	if testing.Short() {
		users = 12_000
	}
	ds, err := dosn.SynthesizeCalibrated("facebook", users, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	model := onlinetime.Sporadic{}
	var table *onlinetime.Table
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table = onlinetime.ComputeTable(model, ds, benchSeed, runtime.NumCPU())
	}
	b.StopTimer()
	nsPerUser := float64(b.Elapsed().Nanoseconds()) / float64(b.N*ds.NumUsers())
	bytesPerUser := meter.perOp(b.N) / float64(ds.NumUsers())
	b.ReportMetric(nsPerUser, "ns/user")
	b.ReportMetric(float64(table.MemoryBytes())/float64(ds.NumUsers()), "arena_bytes/user")
	recordMatrixBench(b, "ScheduleAllLarge", map[string]float64{
		"users":            float64(ds.NumUsers()),
		"ns_per_user":      nsPerUser,
		"bytes_per_user":   bytesPerUser,
		"arena_bytes_user": float64(table.MemoryBytes()) / float64(ds.NumUsers()),
	})
}

// BenchmarkMatrixSmall is the CI smoke benchmark: one small end-to-end
// harness run (synthesis + schedules + sweep) that finishes in well under a
// second. CI runs it and cmd/benchguard fails the build when its per-cell
// cost regresses more than 2x against the committed BENCH_matrix.json
// baseline.
func BenchmarkMatrixSmall(b *testing.B) {
	spec := harness.MatrixSpec{
		Datasets:   []harness.DatasetSpec{{Name: "facebook", Users: 600, Seed: 1}},
		Models:     []harness.ModelSpec{harness.Sporadic()},
		Modes:      []string{"ConRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
	var m *harness.RunManifest
	var err error
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(nsPerCell, "ns/cell")
	recordMatrixBench(b, "MatrixSmall", map[string]float64{
		"cells":        float64(len(m.Cells)),
		"ns_per_cell":  nsPerCell,
		"bytes_per_op": meter.perOp(b.N),
	})
}

// BenchmarkMatrixLarge is the "large" scale the columnar dataset layer
// exists for: two 100k-user datasets (the ROADMAP's first stop past the
// paper's ~14k), one model, one mode — two cells end to end, dominated by
// synthesis + schedule computation + the degree-10 sweep. Besides ns/cell it
// records bytes_per_user, the columnar footprint (activity columns + CSR
// indexes + graph adjacency) per synthesized user, measured on the same
// facebook dataset the harness builds internally. Skipped under -short: CI's
// smoke step exercises the small scales; this one is for workstation runs
// (go test -bench MatrixLarge -benchtime 1x).
func BenchmarkMatrixLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("large scale (100k users/dataset) skipped in -short mode")
	}
	const largeUsers = 100_000
	spec := harness.MatrixSpec{
		Datasets: []harness.DatasetSpec{
			{Name: "facebook", Users: largeUsers, Seed: 1},
			{Name: "twitter", Users: largeUsers, Seed: 2},
		},
		Models:     []harness.ModelSpec{harness.Sporadic()},
		Modes:      []string{"ConRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
	ds, err := dosn.SynthesizeCalibrated("facebook", largeUsers, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	stats := ds.Stats()
	bytesPerUser := float64(stats.Bytes) / float64(stats.Users)
	var m *harness.RunManifest
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(nsPerCell, "ns/cell")
	b.ReportMetric(bytesPerUser, "bytes/user")
	recordMatrixBench(b, "MatrixLarge", map[string]float64{
		"cells":          float64(len(m.Cells)),
		"users_filtered": float64(stats.Users),
		"ns_per_cell":    nsPerCell,
		"bytes_per_op":   meter.perOp(b.N),
		"bytes_per_user": bytesPerUser,
	})
}

// BenchmarkMatrixHuge is the million-user tier: one 1M-user facebook cell
// end to end — streaming synthesis into exactly pre-sized columns,
// shard-granular schedule build, and the sweep over the degree-10 users.
// Besides ns/cell it records bytes_per_user, the columnar footprint per
// synthesized user, which benchguard pins against the large tier (the huge
// row must stay within the ~1.6 KB/user budget the README documents).
// Skipped under -short: BenchmarkMatrixHugeSmoke is the CI-scale stand-in.
func BenchmarkMatrixHuge(b *testing.B) {
	if testing.Short() {
		b.Skip("huge scale (1M users/dataset) skipped in -short mode")
	}
	const hugeUsers = 1_000_000
	spec := harness.MatrixSpec{
		Datasets:   []harness.DatasetSpec{{Name: "facebook", Users: hugeUsers, Seed: 1}},
		Models:     []harness.ModelSpec{harness.Sporadic()},
		Modes:      []string{"ConRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
	ds, err := dosn.SynthesizeCalibrated("facebook", hugeUsers, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	stats := ds.Stats()
	bytesPerUser := float64(stats.Bytes) / float64(stats.Users)
	// Drop the stats dataset before timing so the measured run holds only
	// the harness's own copy.
	ds = nil
	runtime.GC()
	var m *harness.RunManifest
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(nsPerCell, "ns/cell")
	b.ReportMetric(bytesPerUser, "bytes/user")
	recordMatrixBench(b, "MatrixHuge", map[string]float64{
		"cells":          float64(len(m.Cells)),
		"users_filtered": float64(stats.Users),
		"ns_per_cell":    nsPerCell,
		"bytes_per_op":   meter.perOp(b.N),
		"bytes_per_user": bytesPerUser,
	})
}

// BenchmarkMatrixHugeSmoke is the huge tier at CI scale: the same spec shape
// and execution path as BenchmarkMatrixHuge at 20k users, small enough for
// the -short smoke run. It is the -short stand-in for the huge tier's
// per-user bytes: benchguard gates bytes_per_user on every CI build even
// though the full 1M benchmark only runs on workstations.
func BenchmarkMatrixHugeSmoke(b *testing.B) {
	const smokeUsers = 20_000
	spec := harness.MatrixSpec{
		Datasets:   []harness.DatasetSpec{{Name: "facebook", Users: smokeUsers, Seed: 1}},
		Models:     []harness.ModelSpec{harness.Sporadic()},
		Modes:      []string{"ConRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    benchRepeats,
		RootSeed:   benchSeed,
	}
	ds, err := dosn.SynthesizeCalibrated("facebook", smokeUsers, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	stats := ds.Stats()
	bytesPerUser := float64(stats.Bytes) / float64(stats.Users)
	var m *harness.RunManifest
	b.ReportAllocs()
	meter := startAllocMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err = harness.Run(spec, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(m.Cells))
	b.ReportMetric(nsPerCell, "ns/cell")
	recordMatrixBench(b, "MatrixHugeSmoke", map[string]float64{
		"cells":          float64(len(m.Cells)),
		"users_filtered": float64(stats.Users),
		"ns_per_cell":    nsPerCell,
		"bytes_per_op":   meter.perOp(b.N),
		"bytes_per_user": bytesPerUser,
	})
}
