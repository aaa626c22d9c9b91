package onlinetime

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// BenchmarkBuildTable is the package-local figure for the schedule-build
// layer: one table per op for each model kind, on one worker (the inline
// path) and on every core (the chunked fan-out), over a 2,000-user calibrated
// facebook dataset. One dataset serves every op, so the fixed and random rows
// read an activity-center column that already exists — they are named warm,
// and they are what every table after a dataset's first pays. The cold part,
// the column build, is trace.BenchmarkActivityCenters. The closure cases
// fill only the rows a degree-10 friend-replication sweep reads — the
// degree-10 users and their neighbours, as core.AnalysisRows derives them —
// the way the harness builds its schedule tables.
func BenchmarkBuildTable(b *testing.B) {
	ds, err := trace.SynthesizeCalibrated("facebook", 2000, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ds.ActivityCenters(1) // warm at -benchtime 1x too
	read := make([]bool, ds.NumUsers())
	for _, u := range ds.Graph.UsersWithDegree(10) {
		read[u] = true
		for _, f := range ds.Graph.Neighbors(u) {
			read[f] = true
		}
	}
	var closure []socialgraph.UserID
	for u, ok := range read {
		if ok {
			closure = append(closure, socialgraph.UserID(u))
		}
	}
	for _, bc := range []struct {
		name  string
		model Model
		rows  []socialgraph.UserID
	}{
		{"sporadic", Sporadic{}, nil},
		{"sporadic/closure", Sporadic{}, closure},
		{"fixed/warm", FixedLength{Hours: 8}, nil},
		{"fixed/warm/closure", FixedLength{Hours: 8}, closure},
		{"random/warm", RandomLength{}, nil},
	} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(filledRows(ds.NumUsers(), bc.rows)), "rows/op")
				rng := rand.New(rand.NewSource(1))
				for b.Loop() {
					if t := bc.model.BuildTable(ds, rng, workers, bc.rows); t.NumUsers() != ds.NumUsers() {
						b.Fatalf("table covers %d users, dataset has %d", t.NumUsers(), ds.NumUsers())
					}
				}
			})
		}
	}
}
