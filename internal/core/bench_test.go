package core

import (
	"sync"
	"testing"

	"dosn/internal/dht"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// The sweep benchmarks read one 1,200-user facebook dataset filtered like
// the paper's trace, with seed 1, and sweep it with benchSeed.
const (
	benchUsers   = 1200
	benchSeed    = 42
	benchRepeats = 1
)

var (
	benchOnce sync.Once
	benchFB   *trace.Dataset
	benchErr  error
)

// facebook lazily synthesizes the dataset the sweep benchmarks share.
func facebook(b *testing.B) *trace.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchFB, benchErr = trace.SynthesizeCalibrated("facebook", benchUsers, 1, trace.PaperMinActivity)
	})
	if benchErr != nil {
		b.Fatalf("synthesize: %v", benchErr)
	}
	return benchFB
}

// BenchmarkMatrixSweepMaxAvConRep isolates the per-cell *sweep* cost of the
// hottest matrix configuration — MaxAv placement under ConRep with Sporadic
// schedules — with the dataset synthesized and the schedules computed once
// outside the timed loop. This is the benchmark the interval-engine work is
// measured against: it exercises exactly the greedy set cover, connectivity
// checks, metric accumulation and update-propagation-delay computation of
// sweepUser, and nothing else.
func BenchmarkMatrixSweepMaxAvConRep(b *testing.B) {
	ds := facebook(b)
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := Config{
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
	var res *Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cell")
	b.ReportMetric(res.Value(0, 5, MetricAvailability), "maxav_avail_deg5")
}

// BenchmarkSweepUserKernel isolates the per-user degree loop — the fused
// one-pass kernel inside sweepUser (OrWithOverlapCount + incremental AoD +
// cached delay prefixes). Schedules are precomputed outside the timed loop
// and the pool runs a single worker over the degree-10 users, so ns/user
// is the kernel itself: policy selection plus MaxDegree+1 degree steps per
// policy.
func BenchmarkSweepUserKernel(b *testing.B) {
	ds := facebook(b)
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := Config{
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
	var res *Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Users), "ns/user")
}

// BenchmarkMatrixSweepSocialDHT mirrors BenchmarkMatrixSweepMaxAvConRep for
// the most expensive DHT configuration: SocialDHT placement (successor
// window ranking with social proximity + schedule overlap) under ConRep with
// Sporadic schedules, dataset/ring/schedules prepared outside the timed
// loop. It times the architecture axis's hot path next to the
// friend-replica sweep it is compared against.
func BenchmarkMatrixSweepSocialDHT(b *testing.B) {
	ds := facebook(b)
	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		b.Fatal(err)
	}
	model := onlinetime.Sporadic{}
	table := onlinetime.ComputeTable(model, ds, benchSeed, 1)
	cfg := Config{
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
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cell")
	b.ReportMetric(res.Value(0, 5, MetricAvailability), "socialdht_avail_deg5")
}
