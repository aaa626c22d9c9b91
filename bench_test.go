// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation section (Figs. 2–11) plus the extension experiments X1–X5 and
// the ablations A1–A4. Each benchmark regenerates its figure or experiment
// end to end (placement, metric computation, aggregation over the analysis
// population) and reports its key values via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduced numbers. They record
// nothing: end-to-end performance is measured by the repository benchmark
// in bench/ (BENCHMARK.json), and the sweep kernels by the benchmarks in
// internal/core.
//
// Benchmarks run at a reduced dataset scale (1200 users, 1 repeat) so the
// whole harness completes in minutes; cmd/dosn-sim regenerates the same
// figures at any scale.
package dosn_test

import (
	"runtime"
	"sync"
	"testing"

	"dosn"
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
// the BenchmarkMatrixSweep* benchmarks in internal/core measure the sweeps
// alone.
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

// --- X1/X2/X5: protocol-level validation ---------------------------------

// scheduleTable is the schedule table of every user of fb under the model,
// seeded with benchSeed, which the protocol benches read.
func scheduleTable(fb *dosn.Dataset, m dosn.OnlineModel) *dosn.ScheduleTable {
	return dosn.BuildScheduleTable(m, fb, benchSeed, runtime.NumCPU())
}

// BenchmarkProtocolValidation runs the protocol experiment once per online
// model: Sporadic is X1 (measured maximum delay against the analytic bound)
// and X5 (read availability), FixedLength(8h) is X2 (actual against
// observed pair delay). Each sub-benchmark reports all six values.
func BenchmarkProtocolValidation(b *testing.B) {
	fb := facebook(b)
	for _, bc := range []struct {
		name  string
		model dosn.OnlineModel
	}{
		{"Sporadic", dosn.NewSporadic(0)},
		{"FixedLength8h", dosn.NewFixedLength(8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			schedules := scheduleTable(fb, bc.model)
			b.ReportAllocs()
			b.ResetTimer()
			var res *dosn.ProtocolResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = dosn.RunProtocolValidation(dosn.ProtocolConfig{
					Dataset: fb, Schedules: schedules, UserDegree: 10, MaxWalls: 15, Days: 7, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeasuredMaxHours, "measured_max_h")
			b.ReportMetric(res.AnalyticWorstHours, "analytic_bound_h")
			b.ReportMetric(res.MeasuredPairHours, "actual_h")
			b.ReportMetric(res.ObservedPairHours, "observed_h")
			b.ReportMetric(res.MeasuredAoDTime, "measured_aodtime")
			b.ReportMetric(res.AnalyticAoDTime, "analytic_aodtime")
		})
	}
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
