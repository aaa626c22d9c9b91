package interval

import (
	"math/rand"
	"testing"
)

// benchRows synthesizes n day rows of the two shapes the online-time models
// produce: a Sporadic-like row of 5–60 twenty-minute sessions, and a
// FixedLength-like window of 2–8 hours (wrapping midnight when it falls
// there). Rows alternate shapes, so a benchmark cycling over pairs meets
// sparse-with-sparse, window-with-window and mixed operands.
func benchRows(n int) []Bitmap {
	r := rand.New(rand.NewSource(1))
	rows := make([]Bitmap, n)
	for i := range rows {
		if i%2 == 0 {
			for range 5 + r.Intn(56) {
				s := r.Intn(DayMinutes)
				rows[i].AddInterval(Interval{Start: s, End: s + 20})
			}
		} else {
			c, l := r.Intn(DayMinutes), 120+r.Intn(361)
			rows[i].AddInterval(Interval{Start: c - l/2, End: c - l/2 + l})
		}
	}
	return rows
}

const benchRowCount = 256

var benchSink int

// BenchmarkAddInterval sets one 20-minute session (wrapping midnight for a
// share of the starts) into a row that already holds others, the Sporadic
// build's inner step.
func BenchmarkAddInterval(b *testing.B) {
	rows := benchRows(benchRowCount)
	starts := rand.New(rand.NewSource(2)).Perm(DayMinutes)
	i := 0
	for b.Loop() {
		row := &rows[i%benchRowCount]
		s := starts[i%DayMinutes]
		row.AddInterval(Interval{Start: s, End: s + 20})
		i++
	}
}

// BenchmarkOrWithOverlapCount grows an availability row by one replica's row
// and reads back its size and its overlap with a third row, the sweep's
// per-degree kernel.
func BenchmarkOrWithOverlapCount(b *testing.B) {
	rows := benchRows(benchRowCount)
	var avail Bitmap
	i := 0
	for b.Loop() {
		if i%8 == 0 {
			avail.CopyFrom(&rows[i%benchRowCount])
		}
		m, o := avail.OrWithOverlapCount(&rows[(i+1)%benchRowCount], &rows[(i+2)%benchRowCount])
		benchSink += m + o
		i++
	}
}

// BenchmarkOverlapMinutes counts the minutes two rows share.
func BenchmarkOverlapMinutes(b *testing.B) {
	rows := benchRows(benchRowCount)
	i := 0
	for b.Loop() {
		benchSink += rows[i%benchRowCount].OverlapMinutes(&rows[(i+1)%benchRowCount])
		i++
	}
}

// BenchmarkMaxGapWith finds the longest cyclic gap of two rows' union, the
// delay calculator's edge weight.
func BenchmarkMaxGapWith(b *testing.B) {
	rows := benchRows(benchRowCount)
	i := 0
	for b.Loop() {
		g, _ := rows[i%benchRowCount].MaxGapWith(&rows[(i+1)%benchRowCount])
		benchSink += g
		i++
	}
}

// BenchmarkIntersects reports whether two rows share a minute, the ConRep
// connectivity test; pairs cycle over every shape combination, so both the
// early exit and the full scan occur.
func BenchmarkIntersects(b *testing.B) {
	rows := benchRows(benchRowCount)
	i := 0
	for b.Loop() {
		if rows[i%benchRowCount].Intersects(&rows[(i*7+3)%benchRowCount]) {
			benchSink++
		}
		i++
	}
}
