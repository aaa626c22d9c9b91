//go:build !race

// The race detector's instrumentation allocates, so allocation volumes are
// only exact without it.

package harness

import (
	"runtime"
	"testing"
)

// TestRunAllocationBound: one facebook/Sporadic/ConRep cell (degree 10, one
// repeat, root seed 42) allocates at most twice the bytes per run recorded
// when the bounds were set: 2.75 MB at 600 users and 65.5 MB at 20,000.
// Synthesis, the schedule table and the sweep all count; the cell measured
// 3.39 MB and 56.3 MB when the bounds became this test.
func TestRunAllocationBound(t *testing.T) {
	for _, c := range []struct {
		users int
		bound uint64
	}{
		{600, 5_494_178},
		{20_000, 130_919_496},
	} {
		spec := MatrixSpec{
			Datasets:   []DatasetSpec{{Name: "facebook", Users: c.users, Seed: 1}},
			Models:     []ModelSpec{Sporadic()},
			Modes:      []string{"ConRep"},
			MaxDegree:  10,
			UserDegree: 10,
			Repeats:    1,
			RootSeed:   42,
		}
		run := func() {
			if _, err := Run(spec, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // package-level pools and registries, once
		const runs = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d users: %d B allocated per run", c.users, perRun)
		if perRun > c.bound {
			t.Errorf("%d users: Run allocated %d B, bound %d", c.users, perRun, c.bound)
		}
	}
}
