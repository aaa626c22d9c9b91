package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dosn/internal/socialgraph"
)

var benchDataset *Dataset

// BenchmarkSynthesizeCalibrated times calibrated construction end to end —
// graph, rows, filter, sort, indexes — at the paper's two sizes and at the
// large tier's 100k users.
func BenchmarkSynthesizeCalibrated(b *testing.B) {
	for _, c := range []struct {
		name  string
		users int
	}{
		{"facebook", PaperFacebookUsers},
		{"twitter", PaperTwitterUsers},
		{"facebook", 100_000},
	} {
		b.Run(fmt.Sprintf("%s-%d", c.name, c.users), func(b *testing.B) {
			if c.users > PaperTwitterUsers && testing.Short() {
				b.Skip("100k-user synthesis skipped under -short")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := SynthesizeCalibrated(c.name, c.users, 1, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchDataset = d
			}
		})
	}
}

// BenchmarkFilterMinActivity times the public filter on an unfiltered
// paper-scale dataset: what a read or hand-built trace pays, and what
// calibrated construction no longer does.
func BenchmarkFilterMinActivity(b *testing.B) {
	raw, err := SynthesizeCalibrated("facebook", PaperFacebookUsers, 1, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDataset = raw.FilterMinActivity(PaperMinActivity)
	}
}

// BenchmarkActivityCenters times the cold build of the activity-center column
// — what the first FixedLength or RandomLength table on a dataset pays on top
// of a warm build — on a paper-scale dataset, on one worker and on every core.
func BenchmarkActivityCenters(b *testing.B) {
	d, err := SynthesizeCalibrated("facebook", PaperFacebookUsers, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d.centers = nil
				d.ActivityCenters(workers)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/float64(d.NumUsers()), "ns/user")
			b.ReportMetric(perOp/float64(d.NumActivities()), "ns/activity")
		})
	}
}

var benchOff, benchIdx []int32

// BenchmarkBuildCSR times one direction's index build over a paper-scale
// receiver column (the random-access direction).
func BenchmarkBuildCSR(b *testing.B) {
	d, err := SynthesizeCalibrated("facebook", PaperFacebookUsers, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOff, benchIdx = buildCSR(d.receiver, d.NumUsers(), nil, nil)
	}
}

// BenchmarkScatterSort times the day-partitioned counting scatter on
// paper-scale rows (13,884 creators × 50 rows over 30 days), from buffered
// generation-order rows to final columns.
func BenchmarkScatterSort(b *testing.B) {
	const users, perUser, days = 13884, 50, 30
	rng := rand.New(rand.NewSource(1))
	n := users * perUser
	rows := genRows{
		runs:      make([]int32, users),
		receiver:  make([]socialgraph.UserID, n),
		day:       make([]uint8, n),
		second:    make([]int32, n),
		dayCounts: make([]int32, days),
	}
	for u := range rows.runs {
		rows.runs[u] = perUser
	}
	for i := 0; i < n; i++ {
		day := rng.Intn(days)
		rows.receiver[i] = socialgraph.UserID(rng.Intn(users))
		rows.day[i], rows.second[i] = uint8(day), int32(rng.Intn(daySeconds))
		rows.dayCounts[day]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows
		r.second = append([]int32(nil), rows.second...) // the scatter consumes its key buffer
		r.scatterSortByDay(&Dataset{}, Epoch.Unix())
	}
}
