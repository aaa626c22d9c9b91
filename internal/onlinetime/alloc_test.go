//go:build !race

// The race detector's instrumentation allocates, so allocation volumes are
// only exact without it.

package onlinetime

import (
	"runtime"
	"testing"

	"dosn/internal/trace"
)

// TestComputeTableAllocationPerUser: one Sporadic table over 12,000
// synthesized facebook users (11,159 kept) on two workers allocates at most
// 591 bytes per kept user, twice the 295.6 measured when the bound was set.
// The arena holds 184 of them; the rest is the per-user session scratch.
func TestComputeTableAllocationPerUser(t *testing.T) {
	const bound = 591
	ds, err := trace.SynthesizeCalibrated("facebook", 12_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ComputeTable(Sporadic{}, ds, 42, 2) // the activity-center column and pools, once
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		ComputeTable(Sporadic{}, ds, 42, 2)
	}
	runtime.ReadMemStats(&after)
	perUser := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(ds.NumUsers())
	t.Logf("%d kept users: %.1f B allocated per user", ds.NumUsers(), perUser)
	if perUser > bound {
		t.Errorf("ComputeTable allocated %.1f B per kept user, bound %d", perUser, bound)
	}
}
