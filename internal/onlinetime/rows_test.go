package onlinetime

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dosn/internal/obs"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// randomRows draws a row set over n users: each user in with probability
// one half, in ascending order.
func randomRows(r *rand.Rand, n int) []socialgraph.UserID {
	rows := []socialgraph.UserID{}
	for u := 0; u < n; u++ {
		if r.Intn(2) == 0 {
			rows = append(rows, socialgraph.UserID(u))
		}
	}
	return rows
}

// TestQuickRowSetBuildFillsOnlyItsRows: a build over a row set fills each
// listed row exactly as the full build of the same seed does, whatever the
// worker count, and leaves every other row empty. An empty (non-nil) set
// fills nothing.
func TestQuickRowSetBuildFillsOnlyItsRows(t *testing.T) {
	for _, m := range quickModels() {
		prop := func(rt randomTrace, seed int64) bool {
			full := m.BuildTable(rt.d, rand.New(rand.NewSource(seed)), 1, nil)
			for _, rows := range [][]socialgraph.UserID{randomRows(rand.New(rand.NewSource(seed)), rt.d.NumUsers()), {}} {
				in := make(map[socialgraph.UserID]bool, len(rows))
				for _, u := range rows {
					in[u] = true
				}
				for _, workers := range []int{1, 3} {
					got := m.BuildTable(rt.d, rand.New(rand.NewSource(seed)), workers, rows)
					for u := range rt.d.NumUsers() {
						row := got.Bitmap(socialgraph.UserID(u))
						want := full.Bitmap(socialgraph.UserID(u))
						if in[socialgraph.UserID(u)] && !row.Equal(want) || !in[socialgraph.UserID(u)] && row.Minutes() != 0 {
							t.Logf("%s, workers=%d, row %d (in set: %v): %s, full build %s", m.Name(), workers, u, in[socialgraph.UserID(u)], row.Set(), want.Set())
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestRowSetBuildAcrossShardsAndChunks crosses the build's chunk boundary
// (buildChunk rows) and the Sporadic build's shard boundary (buildShardUsers)
// with a sparse row set, so the per-shard slice of the set and the chunking
// over filled rows both run.
func TestRowSetBuildAcrossShardsAndChunks(t *testing.T) {
	n := buildShardUsers + 3*buildChunk
	b := socialgraph.NewBuilder(socialgraph.Undirected, n)
	d := &trace.Dataset{Name: "sparse", Graph: b.Build()}
	for u := 0; u < n; u += 7 { // one activity every seventh user, spread over the week
		at := trace.Epoch.Add(time.Duration(u%190) * 53 * time.Minute)
		d.AppendActivity(trace.Activity{Creator: socialgraph.UserID(u), Receiver: socialgraph.UserID(u), At: at})
	}
	d.Reindex()
	var rows []socialgraph.UserID
	for u := 3; u < n; u += 3 {
		rows = append(rows, socialgraph.UserID(u))
	}
	for _, m := range DefaultModels() {
		full := ComputeTable(m, d, 5, 1)
		for _, workers := range []int{1, 4} {
			got := ComputeRows(m, d, 5, workers, rows)
			for _, u := range rows {
				if !got.Bitmap(u).Equal(full.Bitmap(u)) {
					t.Fatalf("%s, workers=%d: row %d differs from the full build", m.Name(), workers, u)
				}
			}
			if got.Bitmap(1).Minutes() != 0 || got.Bitmap(socialgraph.UserID(n-2)).Minutes() != 0 {
				t.Fatalf("%s, workers=%d: a row outside the set was filled", m.Name(), workers)
			}
		}
	}
}

// TestQuickSeedIndependentRowsEqualAcrossSeeds: whenever SeedIndependent
// says a build over a row set is seed-independent, two seeds fill those rows
// identically. The quick traces have users without activity; a set that
// holds one makes FixedLength draw for a filled row, and the rule must say
// no. Sporadic and RandomLength draw for every row and never qualify.
func TestQuickSeedIndependentRowsEqualAcrossSeeds(t *testing.T) {
	said := map[bool]int{}
	for _, m := range quickModels() {
		prop := func(rt randomTrace, seed1, seed2 int64, pick int64) bool {
			rows := randomRows(rand.New(rand.NewSource(pick)), rt.d.NumUsers())
			centers := rt.d.ActivityCenters(1)
			centreless := false
			for _, u := range rows {
				centreless = centreless || centers[u] < 0
			}
			yes := SeedIndependent(m, rt.d, rows, 1)
			said[yes]++
			if _, fixed := m.(FixedLength); yes != (fixed && !centreless) {
				t.Logf("%s: SeedIndependent = %v over rows %v (centreless user in set: %v)", m.Name(), yes, rows, centreless)
				return false
			}
			if !yes {
				return true
			}
			a := ComputeRows(m, rt.d, seed1, 1, rows)
			b := ComputeRows(m, rt.d, seed2, 1, rows)
			return reflect.DeepEqual(a.Bitmaps(), b.Bitmaps())
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
	if said[true] == 0 || said[false] == 0 {
		t.Errorf("the property never saw both answers: %v", said)
	}
}

// TestSeedIndependentCentrelessUser pins the rule on a hand-built trace:
// user 1 created nothing, so its FixedLength window is drawn. Every row set
// that holds it is seed-dependent — and two seeds do fill it differently —
// and so is the nil (every-row) set; a set without it is seed-independent.
func TestSeedIndependentCentrelessUser(t *testing.T) {
	d := &trace.Dataset{Name: "centreless", Graph: socialgraph.NewBuilder(socialgraph.Undirected, 3).Build()}
	for _, u := range []socialgraph.UserID{0, 2} {
		d.AppendActivity(trace.Activity{Creator: u, Receiver: u, At: trace.Epoch.Add(time.Duration(u+1) * 300 * time.Minute)})
	}
	d.Reindex()
	m := FixedLength{Hours: 2}
	for _, tc := range []struct {
		rows []socialgraph.UserID
		want bool
	}{
		{[]socialgraph.UserID{0, 2}, true},
		{[]socialgraph.UserID{}, true},
		{[]socialgraph.UserID{1}, false},
		{[]socialgraph.UserID{0, 1, 2}, false},
		{nil, false},
	} {
		if got := SeedIndependent(m, d, tc.rows, 1); got != tc.want {
			t.Errorf("SeedIndependent over %v = %v, want %v", tc.rows, got, tc.want)
		}
	}
	a, b := ComputeTable(m, d, 1, 1), ComputeTable(m, d, 2, 1)
	if a.Bitmap(1).Equal(b.Bitmap(1)) {
		t.Error("the centreless user's window came out the same for two seeds; the case shows nothing")
	}
	for _, other := range []Model{Sporadic{}, RandomLength{}} {
		if SeedIndependent(other, d, []socialgraph.UserID{0, 2}, 1) {
			t.Errorf("%s reported seed-independent", other.Name())
		}
	}
}

// TestRowSetBuildCounters: onlinetime.tables_built counts built tables and
// onlinetime.rows_built the rows they filled, not the rows they hold.
func TestRowSetBuildCounters(t *testing.T) {
	d := trace.MustSynthesize(trace.DefaultFacebookConfig(300))
	tables, rows := obs.C("onlinetime.tables_built"), obs.C("onlinetime.rows_built")
	t0, r0 := tables.Value(), rows.Value()
	for _, m := range DefaultModels() {
		ComputeRows(m, d, 1, 2, []socialgraph.UserID{4, 40, 200})
		ComputeTable(m, d, 1, 2)
	}
	if got, want := tables.Value()-t0, int64(2*len(DefaultModels())); got != want {
		t.Errorf("tables_built advanced by %d, want %d", got, want)
	}
	if got, want := rows.Value()-r0, int64(len(DefaultModels())*(3+d.NumUsers())); got != want {
		t.Errorf("rows_built advanced by %d, want %d", got, want)
	}
}
