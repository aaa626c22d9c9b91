package interval

import "math/bits"

// BitmapWords is the number of 64-bit words that cover the day.
const BitmapWords = (DayMinutes + 63) / 64

// lastWordBits is the number of day minutes mapped into the final word;
// lastWordMask keeps Bitmap operations from straying past minute 1439.
const (
	lastWordBits = DayMinutes - 64*(BitmapWords-1)
	lastWordMask = uint64(1)<<lastWordBits - 1
)

// Bitmap is a dense, mutable minute set on the circular day: bit m%64 of
// word m/64 is set exactly when minute m is in the set. The zero value is
// the empty set. A Bitmap is a fixed-size value (no heap pointers), so hot
// paths keep scratch bitmaps and reuse them across iterations without
// allocating.
type Bitmap struct {
	w [BitmapWords]uint64
}

// BitmapsFromSets densifies a schedule slice; index i of the result is the
// dense form of sets[i]. It is the one Set→Bitmap injection point, for
// hand-built sorted-interval test scenarios: production schedules are born
// dense.
func BitmapsFromSets(sets []Set) []Bitmap {
	out := make([]Bitmap, len(sets))
	for i, s := range sets {
		for _, iv := range s.ivs {
			out[i].setRange(iv.Start, iv.End)
		}
	}
	return out
}

// Clear empties the bitmap in place.
//
//dosn:hotpath
func (b *Bitmap) Clear() { b.w = [BitmapWords]uint64{} }

// CopyFrom makes b an exact copy of o.
//
//dosn:hotpath
func (b *Bitmap) CopyFrom(o *Bitmap) { b.w = o.w }

// AddInterval sets the minutes of a (possibly wrapping, possibly
// out-of-range) interval, canonicalized exactly like NewSet.
//
//dosn:hotpath
func (b *Bitmap) AddInterval(iv Interval) {
	length := iv.End - iv.Start
	if length <= 0 {
		return
	}
	if length >= DayMinutes {
		b.setRange(0, DayMinutes)
		return
	}
	s := mod(iv.Start)
	e := s + length
	if e <= DayMinutes {
		b.setRange(s, e)
		return
	}
	b.setRange(s, DayMinutes)
	b.setRange(0, e-DayMinutes)
}

// setRange sets bits [start, end) with 0 <= start <= end <= DayMinutes.
//
//dosn:hotpath
func (b *Bitmap) setRange(start, end int) {
	if start >= end {
		return
	}
	wi, we := start/64, (end-1)/64
	lo := uint(start % 64)
	hi := uint((end-1)%64) + 1
	if wi == we {
		b.w[wi] |= (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
		return
	}
	b.w[wi] |= ^uint64(0) << lo
	for i := wi + 1; i < we; i++ {
		b.w[i] = ^uint64(0)
	}
	b.w[we] |= ^uint64(0) >> (64 - hi)
}

// Set returns the bitmap's run-length view: runs of consecutive set minutes
// become the sorted, disjoint, non-adjacent intervals of a normalized Set (a
// set touching both midnight sides stays split, exactly as NewSet keeps it).
// The conversion is lossless.
func (b *Bitmap) Set() Set {
	var ivs []Interval
	start := -1 // start of the run of set minutes currently open, -1 if none
	pos := 0    // minute index of bit 0 of the current word
	for wi := 0; wi < BitmapWords; wi++ {
		w := b.word(wi)
		nbits := 64
		if wi == BitmapWords-1 {
			nbits = lastWordBits
		}
		idx := 0
		for idx < nbits {
			if start < 0 {
				if w == 0 {
					break // rest of the word is clear
				}
				tz := bits.TrailingZeros64(w)
				idx += tz
				w >>= uint(tz)
				if idx >= nbits {
					break
				}
				start = pos + idx
				continue
			}
			ones := bits.TrailingZeros64(^w)
			if ones == 0 { // the open run ended at this bit
				ivs = append(ivs, Interval{Start: start, End: pos + idx})
				start = -1
				continue
			}
			if ones > nbits-idx {
				ones = nbits - idx
			}
			idx += ones
			w >>= uint(ones)
			if idx < nbits { // run ended inside the word
				ivs = append(ivs, Interval{Start: start, End: pos + idx})
				start = -1
			}
		}
		pos += nbits
	}
	if start >= 0 {
		ivs = append(ivs, Interval{Start: start, End: DayMinutes})
	}
	return Set{ivs: ivs}
}

// word returns word i. The out-of-day bits of the final word are zero by
// invariant, so iteration code never sees phantom minutes ≥ DayMinutes: the
// zero value is clean, setRange — the only primitive that sets bits — is
// bounded by DayMinutes, and every other writer zeroes, copies, ORs or ANDs
// words that are already clean. TestQuickBitmapPhantomBitsZero pins the
// invariant across randomized operation sequences; keeping the accessor
// mask-free removes a branch from every word of every hot scan.
//
//dosn:hotpath
func (b *Bitmap) word(i int) uint64 { return b.w[i] }

// IsEmpty reports whether no minute is set.
//
//dosn:hotpath
func (b *Bitmap) IsEmpty() bool {
	for i := range b.w {
		if b.word(i) != 0 {
			return false
		}
	}
	return true
}

// Minutes returns the measure of the set in minutes (population count).
//
//dosn:hotpath
func (b *Bitmap) Minutes() int {
	n := 0
	for i := range b.w {
		n += bits.OnesCount64(b.word(i))
	}
	return n
}

// Fraction returns the measure as a fraction of the day, matching
// Set.Fraction bit for bit.
//
//dosn:hotpath
func (b *Bitmap) Fraction() float64 { return float64(b.Minutes()) / DayMinutes }

// Contains reports whether minute m (reduced modulo the day) is set.
//
//dosn:hotpath
func (b *Bitmap) Contains(m int) bool {
	m = mod(m)
	return b.w[m/64]&(1<<uint(m%64)) != 0
}

// Equal reports whether b and o contain exactly the same minutes.
//
//dosn:hotpath
func (b *Bitmap) Equal(o *Bitmap) bool {
	for i := range b.w {
		if b.word(i) != o.word(i) {
			return false
		}
	}
	return true
}

// OrWith unions o into b in place.
//
//dosn:hotpath
func (b *Bitmap) OrWith(o *Bitmap) {
	for i := range b.w {
		b.w[i] |= o.w[i]
	}
}

// OrWithCount unions o into b in place and returns the resulting measure in
// minutes — OrWith followed by Minutes, fused into a single pass over the
// words. The sweep's degree loop grows one availability bitmap per step and
// immediately needs its popcount; the fused form halves the word traffic of
// the two-call sequence while returning the identical integer.
//
//dosn:hotpath
func (b *Bitmap) OrWithCount(o *Bitmap) int {
	n := 0
	for i := 0; i < BitmapWords-1; i++ {
		w := b.w[i] | o.w[i]
		b.w[i] = w
		n += bits.OnesCount64(w)
	}
	w := b.w[BitmapWords-1] | o.w[BitmapWords-1]
	b.w[BitmapWords-1] = w
	return n + bits.OnesCount64(w&lastWordMask)
}

// OrWithOverlapCount unions o into b in place and returns both the resulting
// measure and the overlap measure against other — OrWith + Minutes +
// OverlapMinutes fused into one pass, so the degree loop's three full-bitmap
// scans (grow availability, measure it, measure its demand overlap) collapse
// into a single 23-word traversal. Both integers are identical to the
// composed calls.
//
//dosn:hotpath
func (b *Bitmap) OrWithOverlapCount(o, other *Bitmap) (minutes, overlap int) {
	for i := 0; i < BitmapWords-1; i++ {
		w := b.w[i] | o.w[i]
		b.w[i] = w
		minutes += bits.OnesCount64(w)
		overlap += bits.OnesCount64(w & other.w[i])
	}
	w := (b.w[BitmapWords-1] | o.w[BitmapWords-1])
	b.w[BitmapWords-1] = w
	w &= lastWordMask
	minutes += bits.OnesCount64(w)
	overlap += bits.OnesCount64(w & other.w[BitmapWords-1])
	return minutes, overlap
}

// AppendNewOverlapMinutes appends to dst the minutes of (b \ prev) ∩ mask,
// in increasing order, and returns the grown slice (caller-owned scratch, no
// allocation once capacity suffices). It is the incremental-update feed of a
// consumer interested only in a fixed mask (e.g. a user's activity minutes):
// it enumerates just the newly set bits that land inside it, so cost scales
// with the mask hits rather than the growth.
//
//dosn:hotpath
func (b *Bitmap) AppendNewOverlapMinutes(prev, mask *Bitmap, dst []int) []int {
	for i := range b.w {
		d := b.word(i) &^ prev.w[i] & mask.w[i]
		base := i * 64
		for d != 0 {
			dst = append(dst, base+bits.TrailingZeros64(d))
			d &= d - 1
		}
	}
	return dst
}

// AndWith intersects b with o in place.
//
//dosn:hotpath
func (b *Bitmap) AndWith(o *Bitmap) {
	for i := range b.w {
		b.w[i] &= o.w[i]
	}
}

// Union returns b ∪ o as a new bitmap.
//
//dosn:hotpath
func (b *Bitmap) Union(o *Bitmap) Bitmap {
	out := *b
	out.OrWith(o)
	return out
}

// Intersect returns b ∩ o as a new bitmap.
//
//dosn:hotpath
func (b *Bitmap) Intersect(o *Bitmap) Bitmap {
	out := *b
	out.AndWith(o)
	return out
}

// IntersectInto stores a ∩ b into dst (dst may alias either operand),
// letting hot loops reuse one scratch bitmap for pairwise intersections.
func (dst *Bitmap) IntersectInto(a, b *Bitmap) {
	for i := range dst.w {
		dst.w[i] = a.w[i] & b.w[i]
	}
}

// Intersects reports whether b and o share at least one minute, with
// early-exit per word (the dense analogue of Set.Overlaps).
//
//dosn:hotpath
func (b *Bitmap) Intersects(o *Bitmap) bool {
	for i := range b.w {
		if b.word(i)&o.word(i) != 0 {
			return true
		}
	}
	return false
}

// OverlapMinutes returns |b ∩ o| without materializing the intersection —
// the dense analogue of Set.OverlapLen.
//
//dosn:hotpath
func (b *Bitmap) OverlapMinutes(o *Bitmap) int {
	n := 0
	for i := range b.w {
		n += bits.OnesCount64(b.word(i) & o.word(i))
	}
	return n
}

// MinutesInNotIn returns |b ∩ universe \ covered| in one fused pass: the
// greedy set cover's marginal gain restricted to a universe (MaxAv's
// on-demand-activity objective). The unrestricted gain |b \ covered| needs
// no dedicated operation — it is Minutes(b) − OverlapMinutes(b, covered),
// which MaxAv computes from its cached candidate sizes.
//
//dosn:hotpath
func (b *Bitmap) MinutesInNotIn(universe, covered *Bitmap) int {
	n := 0
	for i := range b.w {
		n += bits.OnesCount64(b.word(i) & universe.w[i] &^ covered.w[i])
	}
	return n
}

// OnesInRange counts the set minutes inside the circular window of the given
// length starting at start (start is reduced modulo the day; a length ≥
// DayMinutes covers the whole day). It equals OverlapLen against
// Window(start, length) without building the window.
//
//dosn:hotpath
func (b *Bitmap) OnesInRange(start, length int) int {
	if length <= 0 {
		return 0
	}
	if length >= DayMinutes {
		return b.Minutes()
	}
	s := mod(start)
	e := s + length
	if e <= DayMinutes {
		return b.countRange(s, e)
	}
	return b.countRange(s, DayMinutes) + b.countRange(0, e-DayMinutes)
}

// countRange counts set bits in [start, end) with 0 <= start <= end <= DayMinutes.
//
//dosn:hotpath
func (b *Bitmap) countRange(start, end int) int {
	if start >= end {
		return 0
	}
	wi, we := start/64, (end-1)/64
	lo := uint(start % 64)
	hi := uint((end-1)%64) + 1
	if wi == we {
		return bits.OnesCount64(b.word(wi) & (^uint64(0) << lo) & (^uint64(0) >> (64 - hi)))
	}
	n := bits.OnesCount64(b.word(wi) & (^uint64(0) << lo))
	for i := wi + 1; i < we; i++ {
		n += bits.OnesCount64(b.word(i))
	}
	return n + bits.OnesCount64(b.word(we)&(^uint64(0)>>(64-hi)))
}

// MaxGap returns the longest circular run of minutes not in the set — the
// same quantity as Set.MaxGap, computed by scanning words for zero runs. ok
// is false when the set is empty; a full-day set has gap 0.
//
//dosn:hotpath
func (b *Bitmap) MaxGap() (gap int, ok bool) {
	maxRun, run := 0, 0
	leading := -1 // zero run before the first set bit, for the circular wrap
	for wi := 0; wi < BitmapWords; wi++ {
		w := b.word(wi)
		nbits := 64
		if wi == BitmapWords-1 {
			nbits = lastWordBits
		}
		if w == 0 {
			run += nbits
			continue
		}
		idx := 0
		for idx < nbits {
			if w == 0 { // only zeros remain in this word
				run += nbits - idx
				break
			}
			if tz := bits.TrailingZeros64(w); tz > 0 {
				step := tz
				if step > nbits-idx {
					step = nbits - idx
				}
				run += step
				w >>= uint(step)
				idx += step
				continue
			}
			// A run of set bits begins: close the current zero run.
			if leading < 0 {
				leading = run
			}
			if run > maxRun {
				maxRun = run
			}
			run = 0
			ones := bits.TrailingZeros64(^w)
			if ones > nbits-idx {
				ones = nbits - idx
			}
			w >>= uint(ones)
			idx += ones
		}
	}
	if leading < 0 {
		return 0, false // no set bit anywhere: empty set
	}
	// The trailing zero run wraps around midnight into the leading one.
	if wrap := run + leading; wrap > maxRun {
		maxRun = wrap
	}
	return maxRun, true
}

// MaxGapWith returns MaxGap of the intersection b ∩ o without materializing
// it: the identical zero-run scan with each word fetched as
// b.word(wi) & o.word(wi). Callers that only need the gap of a pairwise
// intersection (the delay calculator's edge weights) skip one full bitmap
// write and re-read per pair. Kept in lockstep with MaxGap and pinned
// against IntersectInto+MaxGap by TestQuickBitmapMaxGapWith.
//
//dosn:hotpath
func (b *Bitmap) MaxGapWith(o *Bitmap) (gap int, ok bool) {
	maxRun, run := 0, 0
	leading := -1 // zero run before the first set bit, for the circular wrap
	for wi := 0; wi < BitmapWords; wi++ {
		w := b.word(wi) & o.word(wi)
		nbits := 64
		if wi == BitmapWords-1 {
			nbits = lastWordBits
		}
		if w == 0 {
			run += nbits
			continue
		}
		idx := 0
		for idx < nbits {
			if w == 0 { // only zeros remain in this word
				run += nbits - idx
				break
			}
			if tz := bits.TrailingZeros64(w); tz > 0 {
				step := tz
				if step > nbits-idx {
					step = nbits - idx
				}
				run += step
				w >>= uint(step)
				idx += step
				continue
			}
			// A run of set bits begins: close the current zero run.
			if leading < 0 {
				leading = run
			}
			if run > maxRun {
				maxRun = run
			}
			run = 0
			ones := bits.TrailingZeros64(^w)
			if ones > nbits-idx {
				ones = nbits - idx
			}
			w >>= uint(ones)
			idx += ones
		}
	}
	if leading < 0 {
		return 0, false // no set bit anywhere: empty intersection
	}
	// The trailing zero run wraps around midnight into the leading one.
	if wrap := run + leading; wrap > maxRun {
		maxRun = wrap
	}
	return maxRun, true
}

// String renders the bitmap in the same interval notation as Set.String.
func (b *Bitmap) String() string { return b.Set().String() }
