//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only exact without it.

package feed

import (
	"runtime"
	"testing"
)

// TestMergeTwoEndedAllocations: a merge split between two trees allocates
// its answer, one scratch block for both trees, and fault.Parallel's fixed
// fan-out bookkeeping, whatever its size. testing.AllocsPerRun runs on one
// processor, where Merge takes one tree, so the count is read around runs
// on every processor.
func TestMergeTwoEndedAllocations(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one processor: Merge runs one tree")
	}
	const runs, want = 100, 9
	for _, size := range [][2]int{{64, 65}, {9, 2000}} {
		walls := benchWalls(size[0], size[1])
		mergeSink = Merge(walls...) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			mergeSink = Merge(walls...)
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != want {
			t.Errorf("%dx%d: Merge allocates %d times, want %d", size[0], size[1], allocs, want)
		}
	}
}
