package feed

import "testing"

var mergeSink []Item

// BenchmarkMerge times the timeline read of a node that hosts 64 walls of 520
// posts, two authors writing one post each per wall per minute, so every
// timestamp ties across all walls and the merge never takes a run from one.
func BenchmarkMerge(b *testing.B) {
	b.Run("64x520", func(b *testing.B) {
		const nWalls, perWall = 64, 520
		walls := make([][]Item, nWalls)
		for w := range walls {
			for i := 0; i < perWall; i++ {
				walls[w] = append(walls[w], postOn(int32(100+w), int32(1+i%2), uint64(1+i/2), int64(i/2)))
			}
		}
		b.ReportAllocs()
		for b.Loop() {
			mergeSink = Merge(walls...)
		}
		if len(mergeSink) != nWalls*perWall {
			b.Fatalf("merged %d items, want %d", len(mergeSink), nWalls*perWall)
		}
	})
}
