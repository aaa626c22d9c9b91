package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
)

// testRows is a quick.Generator producing generation-order column batches
// with heavy timestamp ties (small second range), the case where stability
// is observable.
type testRows struct {
	creator, receiver []socialgraph.UserID
	atUnix            []int64
	span              int64
}

func (testRows) Generate(r *rand.Rand, size int) reflect.Value {
	// Half the batches stay inside one day with heavy ties; the other half
	// span several days so the day-partition round and its boundaries
	// (second 0 and 86399 of interior days) are exercised too.
	span := int64(1 + r.Intn(500))
	if r.Intn(2) == 1 {
		span = int64(1 + r.Intn(5*daySeconds))
	}
	n := r.Intn(400)
	g := testRows{
		creator:  make([]socialgraph.UserID, n),
		receiver: make([]socialgraph.UserID, n),
		atUnix:   make([]int64, n),
		span:     span,
	}
	for i := 0; i < n; i++ {
		// Distinct creators so any reordering of ties is visible.
		g.creator[i] = socialgraph.UserID(i)
		g.receiver[i] = socialgraph.UserID(r.Intn(50))
		g.atUnix[i] = Epoch.Unix() + r.Int63n(span)
	}
	return reflect.ValueOf(g)
}

// refSortColumns is the stable reference ordering: a reflect-based stable
// sort of row indexes by timestamp, gathered back into columns. Both
// production orderings must reproduce its column bytes exactly — including
// the order of rows with equal timestamps, which the CSR indexes (and
// therefore every schedule and golden result) inherit.
func refSortColumns(g testRows) (creator, receiver []socialgraph.UserID, atUnix []int64) {
	perm := make([]int, len(g.atUnix))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return g.atUnix[perm[i]] < g.atUnix[perm[j]] })
	creator = make([]socialgraph.UserID, 0, len(perm))
	receiver = make([]socialgraph.UserID, 0, len(perm))
	atUnix = make([]int64, 0, len(perm))
	for _, p := range perm {
		creator = append(creator, g.creator[p])
		receiver = append(receiver, g.receiver[p])
		atUnix = append(atUnix, g.atUnix[p])
	}
	return creator, receiver, atUnix
}

// dayKeyed buffers the batch the way the row loop hands it to the counting
// scatter: one-row creator runs (creator i made row i), receivers, and the
// (day, second-of-day) key with per-day counts.
func (g testRows) dayKeyed(days int) *genRows {
	n := len(g.atUnix)
	r := &genRows{
		runs:      make([]int32, n),
		receiver:  append([]socialgraph.UserID{}, g.receiver...),
		day:       make([]uint8, n),
		second:    make([]int32, n),
		dayCounts: make([]int32, days),
	}
	for i, ts := range g.atUnix {
		off := ts - Epoch.Unix()
		r.runs[i] = 1
		r.day[i], r.second[i] = uint8(off/daySeconds), int32(off%daySeconds)
		r.dayCounts[off/daySeconds]++
	}
	return r
}

// sameColumns reports whether the scatter's output equals the reference
// ordering, including the minute-of-day column it derives on the way.
func sameColumns(d *Dataset, wc, wr []socialgraph.UserID, wa []int64) bool {
	if len(d.minOfDay) != len(d.atUnix) {
		return false
	}
	for i, ts := range d.atUnix {
		if int(d.minOfDay[i]) != minuteOfDayUnix(ts) {
			return false
		}
	}
	return reflect.DeepEqual(d.creator, wc) && reflect.DeepEqual(d.receiver, wr) && reflect.DeepEqual(d.atUnix, wa)
}

// TestQuickScatterSortMatchesStableSort: both orderings — the counting
// scatter (dense large-scale syntheses) and Reindex's stable permutation
// sort (the sparse fallback) — reproduce the stable reference exactly, ties
// included, so the synthesizer's cost heuristic can never change dataset
// bytes.
func TestQuickScatterSortMatchesStableSort(t *testing.T) {
	prop := func(g testRows) bool {
		wc, wr, wa := refSortColumns(g)
		n := len(g.atUnix)

		// Counting path: per-day row counts + two-round day scatter.
		days := int((g.span + daySeconds - 1) / daySeconds)
		var sorted Dataset
		g.dayKeyed(days).scatterSortByDay(&sorted, Epoch.Unix())
		if !sameColumns(&sorted, wc, wr, wa) {
			t.Logf("n=%d: counting scatter ordered differently from the stable reference", n)
			return false
		}

		// Fallback path: sortByTimestamp's stable permutation sort.
		d := &Dataset{}
		d.setColumns(
			append([]socialgraph.UserID{}, g.creator...),
			append([]socialgraph.UserID{}, g.receiver...),
			append([]int64{}, g.atUnix...),
		)
		d.sortByTimestamp()
		if !reflect.DeepEqual(d.creator, wc) || !reflect.DeepEqual(d.receiver, wr) || !reflect.DeepEqual(d.atUnix, wa) {
			t.Logf("n=%d: sortByTimestamp ordered differently from the stable reference", n)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScatterSortColumnsEmpty covers the zero-row edge (a config whose users
// all have zero activities).
func TestScatterSortColumnsEmpty(t *testing.T) {
	var d Dataset
	testRows{}.dayKeyed(30).scatterSortByDay(&d, Epoch.Unix())
	if len(d.creator) != 0 || len(d.receiver) != 0 || len(d.atUnix) != 0 || len(d.minOfDay) != 0 {
		t.Errorf("scatter of empty columns produced %d/%d/%d/%d rows, want 0",
			len(d.creator), len(d.receiver), len(d.atUnix), len(d.minOfDay))
	}
}

// TestScatterSortDayBoundaries pins the exact boundary seconds: the last
// second of one day and the first of the next must land in different
// partitions, and ties on a boundary second keep generation order.
func TestScatterSortDayBoundaries(t *testing.T) {
	epoch := Epoch.Unix()
	at := []int64{
		epoch + 2*daySeconds, // first second of day 2
		epoch + daySeconds - 1,
		epoch,
		epoch + daySeconds, // first second of day 1
		epoch + daySeconds - 1,
		epoch + 3*daySeconds - 1, // last second of day 2
		epoch,
	}
	g := testRows{
		creator:  make([]socialgraph.UserID, len(at)),
		receiver: make([]socialgraph.UserID, len(at)),
		atUnix:   at,
		span:     3 * daySeconds,
	}
	for i := range g.creator {
		g.creator[i] = socialgraph.UserID(i)
		g.receiver[i] = socialgraph.UserID(100 + i)
	}
	wc, wr, wa := refSortColumns(g)

	var d Dataset
	g.dayKeyed(3).scatterSortByDay(&d, epoch)
	if !sameColumns(&d, wc, wr, wa) {
		t.Errorf("boundary scatter:\n got %v %v %v\nwant %v %v %v", d.creator, d.receiver, d.atUnix, wc, wr, wa)
	}
}

// TestPermIntoMatchesRandPerm pins that the in-place permutation is
// math/rand's rand.Perm bit for bit — same values, same generator
// consumption.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for n := 0; n < 40; n++ {
		a, b := rand.New(rand.NewSource(int64(n))), mathrand.New(int64(n))
		want := a.Perm(n)
		got := make([]int32, n)
		permInto(b, got)
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: permInto = %v, want %v", n, got, want)
			}
		}
		if aNext, bNext := a.Int63(), b.Int63(); aNext != bNext {
			t.Fatalf("n=%d: generator state diverged after permutation", n)
		}
	}
}
