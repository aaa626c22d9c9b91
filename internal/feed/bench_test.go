package feed

import (
	"fmt"
	"testing"
)

var mergeSink []Item

// benchWalls is the timeline read of a node that hosts nWalls walls of
// perWall posts, two authors writing one post each per wall per minute, so
// every timestamp ties across all walls and the merge never takes a run from
// one.
func benchWalls(nWalls, perWall int) [][]Item {
	walls := make([][]Item, nWalls)
	for w := range walls {
		for i := 0; i < perWall; i++ {
			walls[w] = append(walls[w], postOn(int32(100+w), int32(1+i%2), uint64(1+i/2), int64(i/2)))
		}
	}
	return walls
}

// BenchmarkMerge times the timeline read of a node that hosts 64 walls of 520
// posts (benchWalls).
func BenchmarkMerge(b *testing.B) {
	b.Run("64x520", func(b *testing.B) {
		const nWalls, perWall = 64, 520
		walls := benchWalls(nWalls, perWall)
		b.ReportAllocs()
		for b.Loop() {
			mergeSink = Merge(walls...)
		}
		if len(mergeSink) != nWalls*perWall {
			b.Fatalf("merged %d items, want %d", len(mergeSink), nWalls*perWall)
		}
	})
}

// BenchmarkMergeSizes times 64-wall merges of growing totals on one tree
// (serial) and on two (parallel): the smallest total at which two trees win
// is what parallelItems should be.
func BenchmarkMergeSizes(b *testing.B) {
	for _, total := range []int{1024, 2048, 4096, 8192, 16384} {
		walls := benchWalls(64, total/64)
		b.Run(fmt.Sprintf("%d/serial", total), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mergeSink = merge(walls, total)
			}
		})
		b.Run(fmt.Sprintf("%d/parallel", total), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mergeSink = make([]Item, total)
				twoEnded(walls, mergeSink)
			}
		})
	}
}
