package onlinetime

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dosn/internal/trace"
)

// BenchmarkBuildTable is the package-local figure for the schedule-build
// layer: one table per op for each model kind, on one worker (the inline
// path) and on every core (the chunked fan-out), over a 2,000-user calibrated
// facebook dataset.
func BenchmarkBuildTable(b *testing.B) {
	ds, err := trace.SynthesizeCalibrated("facebook", 2000, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		model Model
	}{
		{"sporadic", Sporadic{}},
		{"fixed", FixedLength{Hours: 8}},
		{"random", RandomLength{}},
	} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				rng := rand.New(rand.NewSource(1))
				for b.Loop() {
					if t := bc.model.BuildTable(ds, rng, workers); t.NumUsers() != ds.NumUsers() {
						b.Fatalf("table covers %d users, dataset has %d", t.NumUsers(), ds.NumUsers())
					}
				}
			})
		}
	}
}
