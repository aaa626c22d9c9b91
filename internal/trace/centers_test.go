package trace

import (
	"slices"
	"sync"
	"testing"
	"time"

	"dosn/internal/fault"
	"dosn/internal/socialgraph"
)

// centersDataset builds a 3-user dataset by hand — user 0 creates one
// activity at each given minute-of-day, users 1 and 2 none — without
// reindexing it.
func centersDataset(minutes ...int) *Dataset {
	b := socialgraph.NewBuilder(socialgraph.Undirected, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	d := &Dataset{Name: "centers", Graph: b.Build()}
	for i, m := range minutes {
		d.AppendActivity(activityAtMinute(0, 1, i, m))
	}
	return d
}

func activityAtMinute(creator, receiver socialgraph.UserID, day, minute int) Activity {
	at := Epoch.Add(time.Duration(day)*24*time.Hour + time.Duration(minute)*time.Minute)
	return Activity{Creator: creator, Receiver: receiver, At: at}
}

// TestActivityCentersInvalidation: the column follows the trace. A mutation
// drops it with the CSR indexes and the next request rebuilds it from the new
// activities; a filtered dataset starts without one; a dataset that was never
// reindexed has no created-activity index, so nobody has a center; and with
// the minute-of-day column gone the fill reads the timestamps instead.
func TestActivityCentersInvalidation(t *testing.T) {
	d := centersDataset(100)
	if got := d.ActivityCenters(1); !slices.Equal(got, []int16{-1, -1, -1}) {
		t.Errorf("never-reindexed dataset: centers %v, want none", got)
	}
	d.Reindex()
	if d.centers != nil {
		t.Error("Reindex kept the column built before the created index existed")
	}
	first := d.ActivityCenters(1)
	if !slices.Equal(first, []int16{100, -1, -1}) {
		t.Fatalf("centers %v, want [100 -1 -1]", first)
	}
	if again := d.ActivityCenters(2); &again[0] != &first[0] {
		t.Error("second request rebuilt the column")
	}

	d.AppendActivity(activityAtMinute(1, 0, 1, 700))
	d.AppendActivity(activityAtMinute(1, 0, 2, 700))
	d.AppendActivity(activityAtMinute(0, 1, 3, 100))
	d.Reindex()
	if got := d.ActivityCenters(1); !slices.Equal(got, []int16{100, 700, -1}) {
		t.Errorf("after AppendActivity + Reindex: centers %v, want [100 700 -1]", got)
	}
	if !slices.Equal(first, []int16{100, -1, -1}) {
		t.Errorf("the rebuilt column overwrote the slice handed out before the mutation: %v", first)
	}

	f := d.FilterMinActivity(2) // drops user 2
	if f.centers != nil {
		t.Error("FilterMinActivity's result starts with a column")
	}
	if got := f.ActivityCenters(1); !slices.Equal(got, []int16{100, 700}) {
		t.Errorf("filtered dataset: centers %v, want [100 700]", got)
	}

	g := centersDataset(30, 90, 1439)
	g.Reindex()
	want := slices.Clone(g.ActivityCenters(1))
	g.minOfDay, g.centers = nil, nil // MinuteOfDayAt falls back to the timestamps
	if got := g.ActivityCenters(1); !slices.Equal(got, want) {
		t.Errorf("without the minute column: centers %v, want %v", got, want)
	}
}

// TestActivityCentersBuiltOnceUnderContention: concurrent first requests —
// cell workers building the tables of different models of one dataset in a
// matrix run — share one build and one column.
func TestActivityCentersBuiltOnceUnderContention(t *testing.T) {
	d := MustSynthesize(DefaultFacebookConfig(3 * centerChunk))
	want := slices.Clone(d.ActivityCenters(1))
	d.centers = nil
	before := obsCenterColumns.Value()
	cols := make([][]int16, 8)
	var wg sync.WaitGroup
	for g := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[g] = d.ActivityCenters(1 + g%3)
		}()
	}
	wg.Wait()
	if built := obsCenterColumns.Value() - before; built != 1 {
		t.Errorf("%d columns built for one dataset, want 1", built)
	}
	for g, col := range cols {
		if &col[0] != &cols[0][0] {
			t.Errorf("goroutine %d got a column of its own", g)
		}
	}
	if !slices.Equal(cols[0], want) {
		t.Error("column built under contention differs from the serial build")
	}
}

// TestActivityCentersFailedFillIsNotMemoized: a fault in the fill — returned
// or panicked, on the caller's goroutine or a helper's — reaches the caller
// as a panic carrying the injected site and leaves no column behind, so the
// next request (a retried cell) builds the right one.
func TestActivityCentersFailedFillIsNotMemoized(t *testing.T) {
	d := MustSynthesize(DefaultFacebookConfig(4 * centerChunk))
	want := slices.Clone(d.ActivityCenters(1))
	for _, spec := range []string{"trace.center-chunk=error(2)", "trace.center-chunk=panic(3)"} {
		for _, workers := range []int{1, 3} {
			d.centers = nil
			if err := fault.Enable(spec); err != nil {
				t.Fatal(err)
			}
			r := func() (r any) {
				defer func() { r = recover() }()
				d.ActivityCenters(workers)
				return nil
			}()
			fault.Disable()
			err, _ := r.(error)
			if inj, ok := fault.AsInjected(err); !ok || inj.Site != "trace.center-chunk" {
				t.Fatalf("%s, %d workers: recovered %v, want the injected fault", spec, workers, r)
			}
			if d.centers != nil {
				t.Errorf("%s, %d workers: the failed fill left a column behind", spec, workers)
			}
			if got := d.ActivityCenters(workers); !slices.Equal(got, want) {
				t.Errorf("%s, %d workers: the build after the failed one differs from a clean build", spec, workers)
			}
		}
	}
}

// TestMemoryBytesCountsCenterColumn: 2 bytes per user once the column exists,
// nothing before.
func TestMemoryBytesCountsCenterColumn(t *testing.T) {
	d := MustSynthesize(DefaultFacebookConfig(300))
	before := d.MemoryBytes()
	d.ActivityCenters(1)
	if got, want := d.MemoryBytes()-before, 2*d.NumUsers(); got != want {
		t.Errorf("MemoryBytes grew by %d with the center column, want %d", got, want)
	}
}
