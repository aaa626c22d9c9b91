package onlinetime

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// checkCentersAgainstOracle holds every entry of d's ActivityCenters column
// to the direct-trigonometry activityCenter oracle (table_test.go).
func checkCentersAgainstOracle(t *testing.T, label string, d *trace.Dataset, workers int) {
	t.Helper()
	col := d.ActivityCenters(workers)
	if len(col) != d.NumUsers() {
		t.Fatalf("%s: column has %d entries for %d users", label, len(col), d.NumUsers())
	}
	for u, got := range col {
		want, ok := activityCenter(d, socialgraph.UserID(u))
		if !ok {
			want = -1
		}
		if int(got) != want {
			t.Fatalf("%s: user %d: column says %d, oracle %d", label, u, got, want)
		}
	}
}

// TestActivityCentersMatchTrigOracle: the dataset column — the circular mean
// summed off a 1,440-entry table — is, user for user, the value the
// per-activity cos/sin it replaced produced.
func TestActivityCentersMatchTrigOracle(t *testing.T) {
	for _, name := range []string{"facebook", "twitter"} {
		d, err := trace.SynthesizeCalibrated(name, 2000, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkCentersAgainstOracle(t, name, d, 2)
		// Unfiltered: the users the paper's filter drops, the no-activity ones
		// among them.
		raw, err := trace.SynthesizeCalibrated(name, 500, 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		checkCentersAgainstOracle(t, name+" unfiltered", raw, 1)
	}
	for _, tc := range []struct {
		label   string
		minutes []int
		want    int16
	}{
		{"no activity", nil, -1},
		{"one activity", []int{613}, 613},
		{"two opposite minutes: the first activity's", []int{0, 720}, 0},
		{"four balanced minutes: the first activity's", []int{900, 180, 540, 1260}, 900},
		{"just before midnight rounds up to minute 0", []int{1439, 0, 0}, 0},
		{"just before midnight rounds down to 1439", []int{1439, 1439, 0}, 1439},
		{"across midnight", []int{1380, 60}, 0},
	} {
		d := datasetWithMinutes(t, tc.minutes...)
		checkCentersAgainstOracle(t, tc.label, d, 1)
		if got := d.ActivityCenters(1); got[0] != tc.want || got[1] >= 0 {
			t.Errorf("%s: centers %v, want [%d -1]", tc.label, got, tc.want)
		}
	}
}

// TestActivityCentersWorkerCountInvariant: the column's bytes do not depend
// on how many workers filled it, on a population that spans several chunks.
func TestActivityCentersWorkerCountInvariant(t *testing.T) {
	cfg := trace.DefaultFacebookConfig(3 * buildChunk)
	ref := trace.MustSynthesize(cfg).ActivityCenters(1)
	for _, workers := range []int{2, 7} {
		d := trace.MustSynthesize(cfg)
		if got := d.ActivityCenters(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: column differs from the one-worker fill", workers)
		}
		checkCentersAgainstOracle(t, "worker invariance", d, workers)
	}
}

// centerModels are the models that read the activity-center column.
func centerModels() []Model {
	return []Model{
		FixedLength{Hours: 2}, FixedLength{Hours: 4}, FixedLength{Hours: 6}, FixedLength{Hours: 8},
		RandomLength{},
	}
}

// TestCenterColumnBuiltOncePerDataset: a matrix run starts the first builds
// of a dataset's (dataset, model) entries side by side, so first requests
// for the column arrive concurrently. Eight goroutines building every
// center-reading model on one fresh dataset get the tables of the serial
// build, from exactly one column build.
func TestCenterColumnBuiltOncePerDataset(t *testing.T) {
	cfg := trace.DefaultFacebookConfig(3 * buildChunk)
	serial := trace.MustSynthesize(cfg)
	models := centerModels()
	want := make([]*Table, len(models))
	for i, m := range models {
		want[i] = m.BuildTable(serial, rand.New(rand.NewSource(int64(i))), 1, nil)
	}

	d := trace.MustSynthesize(cfg)
	built := obs.C("trace.center_columns_built")
	before := built.Value()
	const goroutines = 8
	got := make([]*Table, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(models)
			got[g] = models[i].BuildTable(d, rand.New(rand.NewSource(int64(i))), 1+g%3, nil)
		}()
	}
	wg.Wait()
	if n := built.Value() - before; n != 1 {
		t.Errorf("%d center columns built for one dataset, want 1", n)
	}
	for g, tab := range got {
		if !reflect.DeepEqual(tab.Bitmaps(), want[g%len(models)].Bitmaps()) {
			t.Errorf("goroutine %d: %s table differs from the serial build", g, models[g%len(models)].Name())
		}
	}
}

// TestCenterFillFaultFailsOnlyThatBuild: a fault injected into the column
// fill comes out of BuildTable the way a failed row fill does — a panic on
// the calling goroutine carrying the injected site — and the next build on
// the same dataset produces the clean build's bytes.
func TestCenterFillFaultFailsOnlyThatBuild(t *testing.T) {
	cfg := trace.DefaultFacebookConfig(3 * buildChunk)
	m := FixedLength{Hours: 4}
	want := m.BuildTable(trace.MustSynthesize(cfg), rand.New(rand.NewSource(3)), 1, nil)

	d := trace.MustSynthesize(cfg)
	if err := fault.Enable("trace.center-chunk=panic(2)"); err != nil {
		t.Fatal(err)
	}
	r := func() (r any) {
		defer func() { r = recover() }()
		m.BuildTable(d, rand.New(rand.NewSource(3)), 2, nil)
		return nil
	}()
	fault.Disable()
	err, _ := r.(error)
	if inj, ok := fault.AsInjected(err); !ok || inj.Site != "trace.center-chunk" {
		t.Fatalf("recovered %v, want the injected fault", r)
	}
	if got := m.BuildTable(d, rand.New(rand.NewSource(3)), 2, nil); !reflect.DeepEqual(got.Bitmaps(), want.Bitmaps()) {
		t.Error("the build after the failed one differs from a clean build")
	}
}
