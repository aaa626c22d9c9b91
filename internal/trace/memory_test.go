package trace

import (
	"runtime"
	"testing"
)

// TestMemoryBytesTracksMeasuredHeap audits the MemoryBytes estimate — the
// figure the README tables and the huge-tier memory gates report — against
// the runtime's own heap accounting. A column, CSR array, or adjacency arena
// missing from the estimate shows up here as the measured heap growing past
// the estimate's tolerance band.
func TestMemoryBytesTracksMeasuredHeap(t *testing.T) {
	users := 20_000
	if testing.Short() {
		users = 5_000
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// minActivity -1 disables filtering, so the synthesized dataset is the
	// only dataset alive at measurement time (no discarded unfiltered twin).
	d, err := SynthesizeCalibrated("facebook", users, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int(after.HeapAlloc) - int(before.HeapAlloc)
	est := d.MemoryBytes()
	runtime.KeepAlive(d)

	if measured <= 0 {
		t.Fatalf("heap delta %d not positive; measurement broken", measured)
	}
	ratio := float64(est) / float64(measured)
	t.Logf("users=%d estimate=%d measured=%d estimate/measured=%.3f", users, est, measured, ratio)
	// The estimate must cover what's actually resident (no missing arrays:
	// ratio well below 1 means unaccounted allocations) without inventing
	// memory that isn't there. The band allows allocator size-class padding
	// and runtime noise, not a missing column.
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("MemoryBytes estimate %d is %.2fx the measured heap delta %d; accounting is off",
			est, ratio, measured)
	}
}

// TestDatasetBytesPerUserBound holds the columnar footprint per kept user of
// a 20,000-user facebook dataset (18,696 kept) to 1,759 bytes: 1.1× the
// 1,599.6 of the 100,000-user dataset when the bound was set, so the
// million-user tier (1,602 then) stays inside the README's ≈1.6 KB per user.
// The figure is a pure function of the synthesis: capacities, not heap.
func TestDatasetBytesPerUserBound(t *testing.T) {
	const bound = 1759
	d, err := SynthesizeCalibrated("facebook", 20_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	perUser := float64(d.MemoryBytes()) / float64(d.NumUsers())
	t.Logf("%d kept users: %.1f B per user", d.NumUsers(), perUser)
	if perUser > bound {
		t.Errorf("MemoryBytes is %.1f B per kept user, bound %d", perUser, bound)
	}
}
