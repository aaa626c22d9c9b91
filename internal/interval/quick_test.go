package interval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate implements quick.Generator so property tests receive arbitrary
// normalized sets (including empty, wrapping, and fragmented ones).
func (Set) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(8)
	ivs := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		start := r.Intn(2*DayMinutes) - DayMinutes // exercise modular reduction
		length := r.Intn(DayMinutes / 2)
		ivs = append(ivs, Interval{Start: start, End: start + length})
	}
	return reflect.ValueOf(NewSet(ivs...))
}

var quickCfg = &quick.Config{MaxCount: 300}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(a, b Set) bool { return a.Union(b).Equal(b.Union(a)) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAssociative(t *testing.T) {
	f := func(a, b, c Set) bool {
		return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionIdempotent(t *testing.T) {
	f := func(a Set) bool { return a.Union(a).Equal(a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(a, b Set) bool { return a.Intersect(b).Equal(b.Intersect(a)) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSubsetOfUnion(t *testing.T) {
	f := func(a, b Set) bool {
		inter := a.Intersect(b)
		union := a.Union(b)
		return inter.Union(union).Equal(union) // inter ⊆ union
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b Set) bool {
		left := a.Union(b).Complement()
		right := a.Complement().Intersect(b.Complement())
		return left.Equal(right)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickComplementInvolution(t *testing.T) {
	f := func(a Set) bool { return a.Complement().Complement().Equal(a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMeasureInclusionExclusion(t *testing.T) {
	f := func(a, b Set) bool {
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtractDisjointFromSubtrahend(t *testing.T) {
	f := func(a, b Set) bool {
		diff := a.Subtract(b)
		return !diff.Overlaps(b) && diff.Union(a).Equal(a)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapLenMatchesIntersect(t *testing.T) {
	f := func(a, b Set) bool { return a.OverlapLen(b) == a.Intersect(b).Len() }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapsMatchesIntersectNonEmpty(t *testing.T) {
	f := func(a, b Set) bool { return a.Overlaps(b) == !a.Intersect(b).IsEmpty() }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxGapPlusCoverConsistency(t *testing.T) {
	// The max gap is a run of uncovered minutes, so it can never exceed the
	// complement's measure; and gap==0 iff the set covers the whole day.
	f := func(a Set) bool {
		gap, ok := a.MaxGap()
		if !ok {
			return a.IsEmpty()
		}
		if gap > DayMinutes-a.Len() {
			return false
		}
		return (gap == 0) == (a.Len() == DayMinutes)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickContainsAgreesWithIntervals(t *testing.T) {
	f := func(a Set, m int) bool {
		mm := ((m % DayMinutes) + DayMinutes) % DayMinutes
		inIvs := false
		for _, iv := range a.Intervals() {
			if mm >= iv.Start && mm < iv.End {
				inIvs = true
				break
			}
		}
		return a.Contains(m) == inIvs
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizationCanonical(t *testing.T) {
	// Rebuilding a set from its own intervals must be the identity.
	f := func(a Set) bool { return NewSet(a.Intervals()...).Equal(a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
