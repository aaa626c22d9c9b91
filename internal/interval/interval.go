// Package interval implements minute-resolution interval sets on a circular
// 24-hour day. It is the substrate for every online-time computation in the
// repository: user online times (OT sets in the paper), their unions and
// overlaps, availability fractions, and the worst-case contact gaps that
// define the update-propagation-delay metric.
//
// All sets are subsets of the half-open minute range [0, DayMinutes). The day
// is circular: an interval may wrap past midnight, and gap computations are
// cyclic.
//
// Bitmap (bitmap.go) is the production form: a dense 23-word bit-per-minute
// value whose union/intersection/overlap/max-gap operations run in
// O(BitmapWords) with no allocation. Schedules are born as Bitmap rows of an
// onlinetime.Table and every policy, metric and protocol runtime computes on
// them directly.
//
// Set, the sorted-interval form, is the reference and the view: every Bitmap
// operation is quick.Checked against the Set arithmetic in this file, and
// Bitmap.Set renders a bitmap as its run list (Intervals, String) for the
// consumers that walk sessions rather than minutes. Nothing converts a Set
// into a Bitmap outside test scenarios (BitmapsFromSets).
package interval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// DayMinutes is the length of the circular day in minutes. The paper computes
// availability as the fraction of distinct online minutes over 1440.
const DayMinutes = 1440

// Interval is a half-open minute range [Start, End) on the circular day.
// Invariant (normalized form): 0 <= Start < DayMinutes and
// Start < End <= Start+DayMinutes. An interval with End > DayMinutes wraps
// past midnight.
type Interval struct {
	Start int
	End   int
}

// Len returns the interval length in minutes.
func (iv Interval) Len() int { return iv.End - iv.Start }

// String renders the interval as "[start,end)".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// Set is an immutable set of minutes on the circular day, stored as sorted,
// disjoint, non-adjacent, non-wrapping intervals within [0, DayMinutes).
// All operations return new sets. The zero value is the empty set.
type Set struct {
	ivs []Interval // normalized: sorted by Start, disjoint, merged, no wrap
}

// Empty is the empty set.
var Empty = Set{}

// FullDay returns the set covering the whole day.
func FullDay() Set { return Set{ivs: []Interval{{Start: 0, End: DayMinutes}}} }

// NewSet builds a normalized set from arbitrary intervals. Intervals may be
// unsorted, overlapping, wrapping, or out of range; they are canonicalized.
// Intervals with non-positive length are ignored. Lengths are clamped to a
// full day.
func NewSet(ivs ...Interval) Set {
	flat := make([]Interval, 0, len(ivs)+2)
	for _, iv := range ivs {
		flat = appendCanonical(flat, iv.Start, iv.End)
	}
	return normalize(flat)
}

// Window returns the set covering a single window of length minutes starting
// at start (start may be any integer; it is reduced modulo the day). A length
// >= DayMinutes yields the full day; length <= 0 yields the empty set.
func Window(start, length int) Set {
	if length <= 0 {
		return Set{}
	}
	if length >= DayMinutes {
		return FullDay()
	}
	s := mod(start)
	return NewSet(Interval{Start: s, End: s + length})
}

// WindowCentered returns the window of the given length centered on the
// minute center (circularly).
func WindowCentered(center, length int) Set {
	return Window(center-length/2, length)
}

// appendCanonical splits a (possibly wrapping, possibly out-of-range)
// [start,end) into non-wrapping in-range pieces and appends them.
func appendCanonical(dst []Interval, start, end int) []Interval {
	length := end - start
	if length <= 0 {
		return dst
	}
	if length >= DayMinutes {
		return append(dst[:0], Interval{Start: 0, End: DayMinutes})
	}
	s := mod(start)
	e := s + length
	if e <= DayMinutes {
		return append(dst, Interval{Start: s, End: e})
	}
	return append(dst,
		Interval{Start: s, End: DayMinutes},
		Interval{Start: 0, End: e - DayMinutes})
}

// normalize sorts and merges intervals in place and returns the set.
func normalize(ivs []Interval) Set {
	if len(ivs) == 0 {
		return Set{}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	merged := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if iv.Start <= last.End { // overlapping or adjacent: merge
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	// A set that covers [0,x) and [y,DayMinutes) stays split; that is fine
	// for measure and membership, and circular operations account for it.
	return Set{ivs: merged}
}

func mod(m int) int {
	m %= DayMinutes
	if m < 0 {
		m += DayMinutes
	}
	return m
}

// Intervals returns a copy of the normalized intervals.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// IsEmpty reports whether the set contains no minutes.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Len returns the measure of the set in minutes.
func (s Set) Len() int {
	total := 0
	for _, iv := range s.ivs {
		total += iv.Len()
	}
	return total
}

// Fraction returns the measure of the set as a fraction of the day in [0,1].
func (s Set) Fraction() float64 { return float64(s.Len()) / DayMinutes }

// Contains reports whether minute m (reduced modulo the day) is in the set.
func (s Set) Contains(m int) bool {
	m = mod(m)
	// Binary search for the last interval with Start <= m.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Start > m })
	if i == 0 {
		return false
	}
	return m < s.ivs[i-1].End
}

// Equal reports whether two sets contain exactly the same minutes.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// Union returns the set of minutes in s or o.
func (s Set) Union(o Set) Set {
	if s.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return s
	}
	flat := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	flat = append(flat, s.ivs...)
	flat = append(flat, o.ivs...)
	return normalize(flat)
}

// UnionAll returns the union of all given sets.
func UnionAll(sets ...Set) Set {
	n := 0
	for _, s := range sets {
		n += len(s.ivs)
	}
	flat := make([]Interval, 0, n)
	for _, s := range sets {
		flat = append(flat, s.ivs...)
	}
	return normalize(flat)
}

// Intersect returns the set of minutes in both s and o.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := maxInt(a.Start, b.Start)
		hi := minInt(a.End, b.End)
		if lo < hi {
			out = append(out, Interval{Start: lo, End: hi})
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

// Subtract returns the set of minutes in s but not in o.
func (s Set) Subtract(o Set) Set {
	return s.Intersect(o.Complement())
}

// Complement returns the set of minutes of the day not in s.
func (s Set) Complement() Set {
	if s.IsEmpty() {
		return FullDay()
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	prev := 0
	for _, iv := range s.ivs {
		if iv.Start > prev {
			out = append(out, Interval{Start: prev, End: iv.Start})
		}
		prev = iv.End
	}
	if prev < DayMinutes {
		out = append(out, Interval{Start: prev, End: DayMinutes})
	}
	return Set{ivs: out}
}

// Overlaps reports whether s and o share at least one minute.
func (s Set) Overlaps(o Set) bool {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		if maxInt(a.Start, b.Start) < minInt(a.End, b.End) {
			return true
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return false
}

// OverlapLen returns the measure of s ∩ o in minutes without allocating the
// intersection set.
func (s Set) OverlapLen(o Set) int {
	total := 0
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := maxInt(a.Start, b.Start)
		hi := minInt(a.End, b.End)
		if lo < hi {
			total += hi - lo
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return total
}

// MaxGap returns the longest circular run of minutes not in the set — the
// worst-case wait, starting from an arbitrary instant, until the next minute
// that is in the set. ok is false when the set is empty (the wait is
// unbounded). For a full-day set the gap is 0. For a single window of length
// d the gap is DayMinutes−d, which is the paper's 24−d hours expression for
// the per-edge update-propagation delay.
func (s Set) MaxGap() (gap int, ok bool) {
	if s.IsEmpty() {
		return 0, false
	}
	maxGap := 0
	for i, iv := range s.ivs {
		var next int
		if i+1 < len(s.ivs) {
			next = s.ivs[i+1].Start
		} else {
			next = s.ivs[0].Start + DayMinutes // wrap to first interval
		}
		if g := next - iv.End; g > maxGap {
			maxGap = g
		}
	}
	return maxGap, true
}

// String renders the set as a union of intervals, e.g. "[60,120)∪[600,660)".
// The empty set renders as "∅".
func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RandomMinute returns a uniformly random minute contained in the set, using
// the caller's RNG. ok is false for the empty set.
func (s Set) RandomMinute(rng *rand.Rand) (minute int, ok bool) {
	total := s.Len()
	if total == 0 {
		return 0, false
	}
	k := rng.Intn(total)
	for _, iv := range s.ivs {
		if k < iv.Len() {
			return iv.Start + k, true
		}
		k -= iv.Len()
	}
	return 0, false // unreachable: k < total by construction
}
