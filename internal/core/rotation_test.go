package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
)

// TestQuickDayRotationKeepsSporadicResults: shifting every activity of a
// dataset by the same Δ minutes keeps the activity order, so a Sporadic
// table drawn from the same seed makes the same offset draws and every row
// rotates by Δ. Every metric is cyclic over the day, so the sweep of MaxAv,
// MostActive and Random, in ConRep and UnconRep, must not move a bit. Code
// that treats midnight specially — a gap or a window that does not wrap —
// breaks it.
func TestQuickDayRotationKeepsSporadicResults(t *testing.T) {
	ds := testDataset(t)
	orig := ds.Rows()
	modes := []replica.Mode{replica.ConRep, replica.UnconRep}
	want := make([]*Result, len(modes))
	for i, mode := range modes {
		want[i] = runSweep(t, ds, onlinetime.Sporadic{}, mode)
	}
	defer func() {
		ds.SetActivities(orig)
		ds.Reindex()
	}()
	f := func(shift uint16) bool {
		delta := time.Duration(int(shift)%(interval.DayMinutes-1)+1) * time.Minute
		rows := ds.Rows()
		for i := range rows {
			rows[i].At = orig[i].At.Add(delta)
		}
		ds.SetActivities(rows)
		ds.Reindex()
		for i, mode := range modes {
			if got := runSweep(t, ds, onlinetime.Sporadic{}, mode); !reflect.DeepEqual(got, want[i]) {
				t.Logf("shift %v, %v: sweep differs from the unshifted one", delta, mode)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
