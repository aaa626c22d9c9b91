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
// facebook dataset. One dataset serves every op, so the fixed and random rows
// read an activity-center column that already exists — they are named warm,
// and they are what every table after a dataset's first pays. The cold part,
// the column build, is trace.BenchmarkActivityCenters.
func BenchmarkBuildTable(b *testing.B) {
	ds, err := trace.SynthesizeCalibrated("facebook", 2000, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ds.ActivityCenters(1) // warm at -benchtime 1x too
	for _, bc := range []struct {
		name  string
		model Model
	}{
		{"sporadic", Sporadic{}},
		{"fixed/warm", FixedLength{Hours: 8}},
		{"random/warm", RandomLength{}},
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
