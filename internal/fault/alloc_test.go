//go:build !race

// The race detector's instrumentation allocates, so allocation counts are
// only exact without it.

package fault

import "testing"

// TestDisabledSiteAllocatesNothing: with injection disabled, a site hit is
// one atomic load and allocates nothing, seeded or not, so sites may sit on
// the sweep's hot path.
func TestDisabledSiteAllocatesNothing(t *testing.T) {
	s := NewSite("test.alloc")
	Disable()
	var key int64
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		if s.Inject() != nil || s.InjectSeeded(key) != nil {
			t.Fatal("disabled site fired")
		}
	})
	if allocs != 0 {
		t.Errorf("a disabled Inject and InjectSeeded allocate %v times, want 0", allocs)
	}
}
