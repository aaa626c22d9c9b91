package mathrand

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestHashStringIsFNV1a checks HashString against the standard library's
// 64-bit FNV-1a over arbitrary strings.
func TestHashStringIsFNV1a(t *testing.T) {
	f := func(s string) bool {
		h := fnv.New64a()
		h.Write([]byte(s))
		return HashString(s) == h.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if HashString("") != 14695981039346656037 {
		t.Error("HashString of the empty string must be the FNV-1a offset basis")
	}
}

// TestUnitSpansTheHalfOpenInterval checks the coin's ends: the zero hash
// maps to 0 and the all-ones hash to the largest float64 below 1.
func TestUnitSpansTheHalfOpenInterval(t *testing.T) {
	if got := Unit(0); got != 0 {
		t.Errorf("Unit(0) = %v, want 0", got)
	}
	if got := Unit(^uint64(0)); got >= 1 || got != 1-1.0/(1<<53) {
		t.Errorf("Unit(max) = %v, want 1-2^-53", got)
	}
}
