package trace

import (
	"errors"
	"math"
	"testing"
)

// TestCheckActivityCountBoundary pins the int32 index guard at its exact
// boundary: MaxActivities rows index fine, one more would wrap the CSR
// int32 positions and must be refused.
func TestCheckActivityCountBoundary(t *testing.T) {
	if err := checkActivityCount("x", MaxActivities); err != nil {
		t.Fatalf("checkActivityCount(MaxActivities) = %v, want nil", err)
	}
	err := checkActivityCount("x", MaxActivities+1)
	if !errors.Is(err, ErrTooManyActivities) {
		t.Fatalf("checkActivityCount(MaxActivities+1) = %v, want ErrTooManyActivities", err)
	}
	if MaxActivities != math.MaxInt32 {
		t.Fatalf("MaxActivities = %d, want math.MaxInt32 (CSR indexes are int32)", MaxActivities)
	}
}

// TestSynthesizeRefusesInt32Overflow: a config whose exact activity volume
// exceeds the int32 index range must fail with ErrTooManyActivities before
// any activity column is allocated (the guard runs on the RNG-free exact
// total, so this test needs only the small degree/count draws, not 2^31
// rows of memory). The total is summed in 64 bits: where int has 32, an int
// sum wrapped negative, passed the guard and panicked in make.
func TestSynthesizeRefusesInt32Overflow(t *testing.T) {
	cfg := SynthConfig{
		Name:     "overflow",
		Users:    30_000,
		Directed: false,
		// Degree 2 for everyone: a cheap graph where isolated users (whose
		// counts the exact total excludes) are vanishingly rare, keeping the
		// total ≈ 30000 × 100000 = 3e9 > 2^31.
		MeanDegree:  2,
		SigmaDegree: 0,
		// Sigma 0 pins every user at the 100000-activity clamp.
		MeanActivities:  100_000,
		SigmaActivities: 0,
		Days:            14,
		Seed:            1,
	}
	d, err := Synthesize(cfg)
	if !errors.Is(err, ErrTooManyActivities) {
		t.Fatalf("Synthesize(3e9 activities) = (%v, %v), want ErrTooManyActivities", d, err)
	}
}
