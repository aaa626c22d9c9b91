package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Bitmap densifies one set for the oracle checks below (test-only shorthand
// for the BitmapsFromSets injection helper).
func (s Set) Bitmap() Bitmap { return BitmapsFromSets([]Set{s})[0] }

// --- unit tests -----------------------------------------------------------

func TestBitmapZeroValueIsEmpty(t *testing.T) {
	var b Bitmap
	if !b.IsEmpty() {
		t.Fatal("zero Bitmap is not empty")
	}
	if got := b.Minutes(); got != 0 {
		t.Fatalf("Minutes() = %d, want 0", got)
	}
	if _, ok := b.MaxGap(); ok {
		t.Fatal("MaxGap of empty bitmap reported ok")
	}
	if !b.Set().IsEmpty() {
		t.Fatalf("empty bitmap converts to %v", b.Set())
	}
}

func TestBitmapFullDay(t *testing.T) {
	b := FullDay().Bitmap()
	if got := b.Minutes(); got != DayMinutes {
		t.Fatalf("Minutes() = %d, want %d", got, DayMinutes)
	}
	gap, ok := b.MaxGap()
	if !ok || gap != 0 {
		t.Fatalf("MaxGap() = %d,%v, want 0,true", gap, ok)
	}
	if !b.Set().Equal(FullDay()) {
		t.Fatalf("round-trip = %v, want full day", b.Set())
	}
}

func TestBitmapSingleWindowGap(t *testing.T) {
	// A single d-minute window has gap DayMinutes-d — the paper's 24−d hours.
	for _, d := range []int{1, 60, 120, 719, 1439} {
		b := Window(300, d).Bitmap()
		gap, ok := b.MaxGap()
		if !ok || gap != DayMinutes-d {
			t.Errorf("Window(300,%d) gap = %d,%v, want %d,true", d, gap, ok, DayMinutes-d)
		}
	}
}

func TestBitmapWrappingAdjacency(t *testing.T) {
	// [1430,1440) and [0,10) are circularly adjacent: the only gap is the
	// 1420 minutes between 10 and 1430, for both representations.
	s := NewSet(Interval{Start: 1430, End: 1450})
	b := s.Bitmap()
	wantGap, _ := s.MaxGap()
	if wantGap != 1420 {
		t.Fatalf("Set gap = %d, want 1420", wantGap)
	}
	if gap, ok := b.MaxGap(); !ok || gap != wantGap {
		t.Fatalf("Bitmap gap = %d,%v, want %d,true", gap, ok, wantGap)
	}
	if !b.Set().Equal(s) {
		t.Fatalf("round-trip = %v, want %v", b.Set(), s)
	}
}

func TestBitmapWordBoundaryRuns(t *testing.T) {
	// Runs that start, end, or span exactly at 64-bit word boundaries.
	cases := []Set{
		NewSet(Interval{Start: 0, End: 64}),
		NewSet(Interval{Start: 64, End: 128}),
		NewSet(Interval{Start: 63, End: 65}),
		NewSet(Interval{Start: 0, End: 1}, Interval{Start: 1439, End: 1440}),
		NewSet(Interval{Start: 60, End: 200}, Interval{Start: 300, End: 321}),
		NewSet(Interval{Start: 1408, End: 1440}), // final (32-bit) word only
		NewSet(Interval{Start: 1407, End: 1409}), // spans into the final word
	}
	for _, s := range cases {
		b := s.Bitmap()
		if !b.Set().Equal(s) {
			t.Errorf("round-trip(%v) = %v", s, b.Set())
		}
		if got := b.Minutes(); got != s.Len() {
			t.Errorf("Minutes(%v) = %d, want %d", s, got, s.Len())
		}
		sg, sok := s.MaxGap()
		bg, bok := b.MaxGap()
		if sg != bg || sok != bok {
			t.Errorf("MaxGap(%v): bitmap %d,%v vs set %d,%v", s, bg, bok, sg, sok)
		}
	}
}

func TestBitmapOnesInRange(t *testing.T) {
	s := NewSet(Interval{Start: 100, End: 200}, Interval{Start: 1400, End: 1500})
	b := s.Bitmap()
	cases := []struct{ start, length int }{
		{0, 0}, {0, 1440}, {150, 10}, {1350, 200}, {-100, 300}, {1439, 2},
		{50, 100}, {199, 1}, {200, 1}, {0, 2000}, {700, -5},
	}
	for _, c := range cases {
		want := s.OverlapLen(Window(c.start, c.length))
		if got := b.OnesInRange(c.start, c.length); got != want {
			t.Errorf("OnesInRange(%d,%d) = %d, want %d", c.start, c.length, got, want)
		}
	}
}

func TestBitmapScratchReuse(t *testing.T) {
	a := NewSet(Interval{Start: 10, End: 500}).Bitmap()
	c := NewSet(Interval{Start: 400, End: 900}).Bitmap()
	scratch := FullDay().Bitmap() // stale contents must not leak
	scratch.IntersectInto(&a, &c)
	if got, want := scratch.Minutes(), 100; got != want {
		t.Fatalf("IntersectInto = %d minutes, want %d", got, want)
	}
	scratch.Clear()
	scratch.AddInterval(Interval{Start: 0, End: 7})
	if got := scratch.Minutes(); got != 7 {
		t.Fatalf("AddInterval after Clear = %d minutes, want 7", got)
	}
}

// --- property tests (quick.Check): Set and Bitmap must agree --------------

func TestQuickBitmapRoundTrip(t *testing.T) {
	f := func(a Set) bool {
		b := a.Bitmap()
		return b.Set().Equal(a)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapRoundTripFromDense(t *testing.T) {
	// Dense→sparse→dense is also the identity, so neither direction loses
	// minutes.
	f := func(a Set) bool {
		b := a.Bitmap()
		s := b.Set()
		rb := s.Bitmap()
		return rb.Equal(&b)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapMinutes(t *testing.T) {
	f := func(a Set) bool {
		b := a.Bitmap()
		return b.Minutes() == a.Len()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapUnionAgrees(t *testing.T) {
	f := func(a, b Set) bool {
		ab, bb := a.Bitmap(), b.Bitmap()
		u := ab.Union(&bb)
		return u.Set().Equal(a.Union(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapIntersectAgrees(t *testing.T) {
	f := func(a, b Set) bool {
		ab, bb := a.Bitmap(), b.Bitmap()
		i := ab.Intersect(&bb)
		return i.Set().Equal(a.Intersect(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapOverlapAgrees(t *testing.T) {
	f := func(a, b Set) bool {
		ab, bb := a.Bitmap(), b.Bitmap()
		return ab.OverlapMinutes(&bb) == a.OverlapLen(b) &&
			ab.Intersects(&bb) == a.Overlaps(b)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapMaxGapAgrees(t *testing.T) {
	f := func(a Set) bool {
		b := a.Bitmap()
		bg, bok := b.MaxGap()
		sg, sok := a.MaxGap()
		return bg == sg && bok == sok
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapPhantomBitsZero(t *testing.T) {
	// word() reads raw words on the strength of this invariant: no
	// operation ever sets the out-of-day bits of the final word. Exercise
	// every mutating path and check the phantom region after each.
	clean := func(bs ...*Bitmap) bool {
		for _, b := range bs {
			if b.w[BitmapWords-1]&^lastWordMask != 0 {
				return false
			}
		}
		return true
	}
	f := func(a, b Set, start, length int) bool {
		ab, bb := a.Bitmap(), b.Bitmap()
		scratch := a.Bitmap()
		scratch.AddInterval(Interval{Start: start, End: start + length%(3*DayMinutes)})
		scratch.OrWith(&bb)
		scratch.OrWithCount(&ab)
		scratch.OrWithOverlapCount(&bb, &ab)
		scratch.AndWith(&ab)
		var inter Bitmap
		inter.IntersectInto(&ab, &bb)
		u := ab.Union(&bb)
		i := ab.Intersect(&bb)
		var cp Bitmap
		cp.CopyFrom(&scratch)
		return clean(&ab, &bb, &scratch, &inter, &u, &i, &cp)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapMaxGapWith(t *testing.T) {
	// The fused intersection gap must match materializing the intersection
	// first: MaxGapWith(a, b) ≡ IntersectInto(a, b); MaxGap().
	f := func(a, b Set) bool {
		ab, bb := a.Bitmap(), b.Bitmap()
		var common Bitmap
		common.IntersectInto(&ab, &bb)
		wantGap, wantOK := common.MaxGap()
		gotGap, gotOK := ab.MaxGapWith(&bb)
		return gotGap == wantGap && gotOK == wantOK
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapGainAgrees(t *testing.T) {
	// The greedy set cover's gain arithmetic must match the Set arithmetic
	// MaxAv used before: the unrestricted gain is size − overlap, and the
	// restricted gain is the fused MinutesInNotIn pass.
	f := func(ot, covered, universe Set) bool {
		otB, covB, uniB := ot.Bitmap(), covered.Bitmap(), universe.Bitmap()
		plainWant := ot.Len() - covered.OverlapLen(ot)
		useful := ot.Intersect(universe)
		restrictedWant := useful.Len() - covered.OverlapLen(useful)
		return otB.Minutes()-covB.OverlapMinutes(&otB) == plainWant &&
			otB.MinutesInNotIn(&uniB, &covB) == restrictedWant
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapContainsAgrees(t *testing.T) {
	f := func(a Set, m int) bool {
		b := a.Bitmap()
		return b.Contains(m) == a.Contains(m)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapOnesInRangeAgrees(t *testing.T) {
	f := func(a Set, start, length int16) bool {
		b := a.Bitmap()
		return b.OnesInRange(int(start), int(length)) ==
			a.OverlapLen(Window(int(start), int(length)))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickBitmapMidnightWrap forces every generated interval to cross
// midnight, the geometry where circular bookkeeping slips.
func TestQuickBitmapMidnightWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(5)
		ivs := make([]Interval, 0, n)
		for j := 0; j < n; j++ {
			start := DayMinutes - 1 - rng.Intn(120)
			length := 2 + rng.Intn(300)
			ivs = append(ivs, Interval{Start: start, End: start + length})
		}
		s := NewSet(ivs...)
		b := s.Bitmap()
		if !b.Set().Equal(s) {
			t.Fatalf("round-trip(%v) = %v", s, b.Set())
		}
		sg, sok := s.MaxGap()
		bg, bok := b.MaxGap()
		if sg != bg || sok != bok {
			t.Fatalf("MaxGap(%v): bitmap %d,%v vs set %d,%v", s, bg, bok, sg, sok)
		}
	}
}

// --- fused sweep-kernel ops ------------------------------------------------
//
// OrWithCount / OrWithOverlapCount / AppendNewOverlapMinutes exist so the sweep's
// inner degree loop touches each 23-word bitmap once. Their contract is exact
// equivalence with the separate ops they fuse — the goldens depend on it.

func TestQuickBitmapOrWithCountAgrees(t *testing.T) {
	f := func(a, b Set) bool {
		fused := a.Bitmap()
		bb := b.Bitmap()
		n := fused.OrWithCount(&bb)
		ref := a.Bitmap()
		ref.OrWith(&bb)
		return fused.Equal(&ref) && n == ref.Minutes()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapOrWithOverlapCountAgrees(t *testing.T) {
	f := func(a, b, demand Set) bool {
		fused := a.Bitmap()
		bb, db := b.Bitmap(), demand.Bitmap()
		minutes, overlap := fused.OrWithOverlapCount(&bb, &db)
		ref := a.Bitmap()
		ref.OrWith(&bb)
		return fused.Equal(&ref) &&
			minutes == ref.Minutes() &&
			overlap == ref.OverlapMinutes(&db)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitmapAppendNewOverlapMinutes(t *testing.T) {
	// (b \ prev) ∩ mask, ascending — the AoD tracker's feed.
	f := func(a, b, mask Set) bool {
		prev := a.Bitmap()
		grown := a.Bitmap()
		bb, mb := b.Bitmap(), mask.Bitmap()
		grown.OrWith(&bb)
		dst := grown.AppendNewOverlapMinutes(&prev, &mb, nil)
		want := b.Subtract(a).Intersect(mask)
		if len(dst) != want.Len() {
			return false
		}
		last := -1
		for _, m := range dst {
			if m <= last || !want.Contains(m) {
				return false
			}
			last = m
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
