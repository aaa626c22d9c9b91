package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dosn/internal/core"
	"dosn/internal/fault"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// figureBase is the base of the figure tests: small calibrated datasets and
// the paper's sweep bounds, so that Fig. 9's degree-10 cell is Fig. 3a's.
func figureBase() MatrixSpec {
	return MatrixSpec{
		Datasets:   []DatasetSpec{{Name: "facebook", Users: 600}, {Name: "twitter", Users: 600}},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    1,
		RootSeed:   5,
	}
}

// figureByID returns the entry of the door over base with the given ID.
func figureByID(t *testing.T, base MatrixSpec, id string) figure {
	t.Helper()
	for _, f := range figures(base.fill()) {
		if f.id == id {
			return f
		}
	}
	t.Fatalf("no figure %s", id)
	return figure{}
}

func TestStandardPanelsCoverPaperFigures(t *testing.T) {
	byFig := map[string]int{}
	seen := map[string]bool{}
	for _, f := range figures(figureBase().fill()) {
		byFig[strings.TrimRight(f.id, "abcd")]++
		if seen[f.id] {
			t.Errorf("duplicate panel id %s", f.id)
		}
		seen[f.id] = true
		if f.xs != nil && len(f.xs) != len(f.cells) {
			t.Errorf("panel %s has %d x values for %d cells", f.id, len(f.xs), len(f.cells))
		}
		if f.logX != strings.HasPrefix(f.id, "fig8") { // only Fig. 8's session axis is log-spaced
			t.Errorf("panel %s has logX %v", f.id, f.logX)
		}
		for _, j := range f.cells {
			if j.compute != nil {
				continue // a computed entry's job reads no spec
			}
			if len(j.spec.Cells()) != 1 || j.spec.Validate() != nil {
				t.Errorf("panel %s reads a cell of a spec that is not one valid cell: %+v", f.id, j.spec)
			}
		}
	}
	want := map[string]int{"fig3": 4, "fig4": 2, "fig5": 4, "fig6": 4, "fig7": 4, "fig8": 4, "fig9": 2, "fig10": 4, "fig11": 4}
	for fig, n := range want {
		if byFig[fig] != n {
			t.Errorf("figure %s has %d panels, want %d", fig, byFig[fig], n)
		}
	}
}

// TestFiguresRunEachSweepOnce: rendering every figure in one Figures call
// starts one loop job per distinct harness cell and one per computed entry —
// counted by the jobs the loop started — and gives exactly what one Figures
// call per ID gives. Fig. 9's degree-10 cell is Fig. 3a's, and A1 reads a
// cell of its own. The claims evaluator's cells are the sweep cells alone.
// Not parallel: it reads a process-wide counter.
func TestFiguresRunEachSweepOnce(t *testing.T) {
	base := figureBase()
	ids := FigureIDs()
	distinct := map[string]bool{}
	computedJobs := 0
	for _, f := range figures(base.fill()) {
		for _, j := range f.cells {
			if j.compute != nil {
				computedJobs++
			} else {
				distinct[j.key()] = true
			}
		}
	}
	// 10 degree-panel cells (Fig. 3's four models, Fig. 4's two UnconRep
	// ones, Fig. 10's four; Figs. 5–7 and 11 read the same cells), Fig. 8's
	// seven session lengths, A1's one, and Fig. 9's user degrees 1..9.
	if want := 10 + 7 + 1 + 9; len(distinct) != want {
		t.Fatalf("%d distinct cells, want %d", len(distinct), want)
	}
	// Fig. 2, A2, A3, X4, X1/X2 and X6.
	if computedJobs != 6 {
		t.Fatalf("%d computed entries, want 6", computedJobs)
	}
	fig9 := figureByID(t, base, "fig9a").cells
	if fig9[len(fig9)-1].key() != figureByID(t, base, "fig3a").cells[0].key() {
		t.Error("Fig. 9's degree-10 cell is not Fig. 3a's")
	}

	before := obsCellsStarted.Value()
	d, all, err := runFigures(base, ids, 2)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	if got, want := obsCellsStarted.Value()-before, int64(len(distinct)+computedJobs); got != want {
		t.Errorf("Figures started %d jobs, want %d (each distinct cell once, each computed entry once)", got, want)
	}
	ev, err := d.evidence(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.cells) != len(distinct) {
		t.Errorf("the evaluator reads %d cells, want the %d sweep cells", len(ev.cells), len(distinct))
	}
	for _, c := range ev.cells {
		if c.Mode == "" {
			t.Errorf("the evaluator reads a computed result among its cells: %v", c.Policies)
		}
	}
	for i, id := range ids {
		_, figs, err := runFigures(base, []string{id}, 1)
		if err != nil {
			t.Fatalf("Figures(%s): %v", id, err)
		}
		if !reflect.DeepEqual(figs[0], all[i]) {
			t.Errorf("%s: rendered alone and among all differently", id)
		}
	}
}

// TestFiguresAreManifestViews: a sweep figure's series is, bit for bit, the
// matching cell of harness.Run on that cell's spec run alone — a Fig. 4
// UnconRep panel, two Fig. 8 session lengths, one Fig. 9 user degree and
// A1.
func TestFiguresAreManifestViews(t *testing.T) {
	base := figureBase()
	// At max degree 6, Fig. 9's degree-6 cell and Fig. 3a's differ only in
	// the user degree, so a door that keyed cells without it would read one
	// for the other.
	base.MaxDegree = 6
	fb := base.Datasets[0]
	spec := func(m ModelSpec, mode string, maxDegree, userDegree int, policies ...string) MatrixSpec {
		return MatrixSpec{
			Datasets: []DatasetSpec{fb}, Models: []ModelSpec{m}, Modes: []string{mode}, Policies: policies,
			MaxDegree: maxDegree, UserDegree: userDegree, Repeats: base.Repeats, RootSeed: base.RootSeed,
		}
	}
	cell := func(s MatrixSpec) CellResult {
		t.Helper()
		m, err := Run(s, RunOptions{Workers: 1})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m.Cells[0]
	}
	ids := []string{"fig3a", "fig4b", "fig8a", "fig8d", "fig9b", "ablation-objective-avail", "ablation-objective-aodact"}
	figs, err := Figures(base, ids)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	byID := map[string]plot.Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}
	// y returns one policy's values of a metric in a cell.
	y := func(c CellResult, metric string, pi int) []float64 { return c.Metrics[metric][pi] }
	// last returns the value at a cell's largest degree.
	last := func(c CellResult, metric string, pi int) float64 { return c.Metrics[metric][pi][len(c.Degrees)-1] }

	unconrep := cell(spec(FixedLength(8), "UnconRep", base.MaxDegree, base.UserDegree))
	for pi, s := range byID["fig4b"].Series {
		if !slices.Equal(s.Y, y(unconrep, "availability", pi)) {
			t.Errorf("fig4b %s = %v, manifest %v", s.Label, s.Y, y(unconrep, "availability", pi))
		}
	}
	for k, sec := range map[int]int{0: 100, 4: 10000} {
		c := cell(spec(ModelSpec{Kind: "sporadic", SessionSeconds: sec}, "ConRep", 3, base.UserDegree))
		for _, fm := range []struct{ id, metric string }{{"fig8a", "availability"}, {"fig8d", "delay_hours"}} {
			for pi, s := range byID[fm.id].Series {
				if s.X[k] != float64(sec) || s.Y[k] != last(c, fm.metric, pi) {
					t.Errorf("%s %s at %g s = %v, manifest %v", fm.id, s.Label, s.X[k], s.Y[k], last(c, fm.metric, pi))
				}
			}
		}
	}
	deg6 := cell(spec(Sporadic(), "ConRep", 6, 6))
	for pi, s := range byID["fig9b"].Series {
		i := slices.Index(s.X, 6)
		if i < 0 || s.Y[i] != last(deg6, "delay_hours", pi) {
			t.Errorf("fig9b %s at degree 6 = %v, manifest %v", s.Label, s.Y, last(deg6, "delay_hours", pi))
		}
	}
	a1 := cell(spec(Sporadic(), "ConRep", 5, base.UserDegree, "MaxAv", "MaxAv(activity)", "Random"))
	for _, fm := range []struct{ id, metric string }{{"ablation-objective-avail", "availability"}, {"ablation-objective-aodact", "aod_activity"}} {
		for pi, s := range byID[fm.id].Series {
			if s.Label != a1.Policies[pi] || !slices.Equal(s.Y, y(a1, fm.metric, pi)) {
				t.Errorf("%s %s = %v, manifest %s %v", fm.id, s.Label, s.Y, a1.Policies[pi], y(a1, fm.metric, pi))
			}
		}
	}
}

func TestFigureIDsResolve(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 40 {
		t.Fatalf("the door lists %d figures, want 40", len(ids))
	}
	// One panel ID per figure family keeps the test fast.
	probe := []string{"fig2", "fig3a", "fig4b", "fig5c", "fig7d", "fig8a", "fig9a", "fig10a", "fig11b", "ablation-churn"}
	figs, err := Figures(figureBase(), probe)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	for i, id := range probe {
		if figs[i].ID != id || len(figs[i].Series) == 0 {
			t.Errorf("Figures(%s) = %q with %d series", id, figs[i].ID, len(figs[i].Series))
		}
		if figs[i].LogX != (id == "fig8a") {
			t.Errorf("Figures(%s) has LogX %v", id, figs[i].LogX)
		}
	}
	// Figs. 8 and 9 plot one series per policy of the paper's three.
	for _, i := range []int{5, 6} {
		if len(figs[i].Series) != 3 {
			t.Errorf("%s has %d series, want 3", probe[i], len(figs[i].Series))
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	_, err := Figures(figureBase(), []string{"fig99"})
	if err == nil {
		t.Fatal("unknown figure must error")
	}
	// The error lists the valid IDs, experiments included.
	for _, id := range []string{"fig2", "fig11d", "ablation-churn", "experiment-protocol", "experiment-arch"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-figure error %q does not list %q", err, id)
		}
	}
}

// TestFiguresMissingDataset: a figure over a dataset the base does not
// list fails, and so does a base with no user degree for Fig. 9 to sweep.
func TestFiguresMissingDataset(t *testing.T) {
	base := figureBase()
	base.Datasets = base.Datasets[:1] // no twitter
	for _, id := range []string{"fig10a", "fig2"} {
		if _, err := Figures(base, []string{id}); err == nil {
			t.Errorf("%s: missing dataset must error", id)
		}
	}
	base.Datasets = nil
	for _, id := range []string{"ablation-history", "experiment-arch"} {
		if _, err := Figures(base, []string{id}); err == nil || !strings.Contains(err.Error(), "no facebook dataset") {
			t.Errorf("%s without a dataset: err = %v", id, err)
		}
	}
	base = figureBase()
	base.UserDegree = 0
	if _, err := Figures(base, []string{"fig9a"}); err == nil {
		t.Error("a base with user degree 0 must error")
	}
	// A user degree no user has leaves Fig. 3 without a population.
	base.UserDegree = 500
	if _, err := Figures(base, []string{"fig3a"}); !errors.Is(err, core.ErrNoUsers) {
		t.Errorf("fig3a at user degree 500: err = %v, want ErrNoUsers", err)
	}
}

func TestDegreeDistributionFigure(t *testing.T) {
	base := figureBase()
	figs, err := Figures(base, []string{"fig2"})
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	if len(figs[0].Series) != 2 {
		t.Fatalf("series = %d, want 2", len(figs[0].Series))
	}
	shared := newCaches(nil)
	for i, series := range figs[0].Series {
		ds, _, err := shared.dataset(base.Datasets[i])
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, y := range series.Y {
			total += y
		}
		if int(total) != ds.NumUsers() {
			t.Errorf("%s histogram sums to %v, want its %d users", series.Label, total, ds.NumUsers())
		}
	}
}

// TestComputedEntryPanicIsRecovered: a computed entry that panics — here a
// table build inside X4's runner — fails its figure with an error naming
// it, through the cell isolation boundary, and the door keeps working. Not
// parallel: it arms a process-wide failpoint and reads a process-wide
// counter.
func TestComputedEntryPanicIsRecovered(t *testing.T) {
	withHarnessFaults(t, "onlinetime.build-chunk=panic(1)")
	before := obsCellsRecovered.Value()
	_, err := Figures(figureBase(), []string{"experiment-loadbalance"})
	if err == nil || !strings.Contains(err.Error(), "experiment-loadbalance") {
		t.Fatalf("err = %v, want the panic as an error naming experiment-loadbalance", err)
	}
	if _, ok := fault.AsInjected(err); !ok {
		t.Errorf("err = %v, want the injected fault", err)
	}
	if got := obsCellsRecovered.Value() - before; got != 1 {
		t.Errorf("cells_recovered rose by %d, want 1", got)
	}
	fault.Disable()
	if figs, err := Figures(figureBase(), []string{"experiment-loadbalance"}); err != nil || len(figs[0].Series) != 3 {
		t.Errorf("after the fault: err = %v", err)
	}
}

// TestExperimentsShareCellTables: A2, A3, X4 and X1/X2 read Fig. 3a's
// schedule entry, so the door over Fig. 3a and the four builds exactly the
// tables Fig. 3a alone builds. Each result is its runner's on the first
// repetition's cached table, whose rows equal a build of every row from the
// entry's seed (X4 places every user), and each experiment renders alone as
// it does among the others, building only that one table. The experiment
// jobs fill the entry's first table in every row while Fig. 3a's cell reads
// it, on two workers.
func TestExperimentsShareCellTables(t *testing.T) {
	base := figureBase()
	base.Repeats = 2
	tables := obs.C("onlinetime.tables_built")
	ids := []string{"fig3a", "ablation-history", "ablation-churn", "experiment-loadbalance", "experiment-protocol"}

	before := tables.Value()
	if _, err := Figures(base, ids[:1]); err != nil {
		t.Fatalf("Figures(fig3a): %v", err)
	}
	alone := tables.Value() - before
	before = tables.Value()
	d, figs, err := runFigures(base, ids, 2)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	if got := tables.Value() - before; got != alone || alone != int64(base.Repeats) {
		t.Errorf("fig3a and the experiments built %d tables, fig3a alone %d, want %d each", got, alone, base.Repeats)
	}

	fb, err := d.shared.named(d.base, "facebook")
	if err != nil {
		t.Fatal(err)
	}
	schedules, whole := firstCachedTable(t, d, fb, figureByID(t, d.base, "fig3a").cells[0])
	if !whole {
		t.Error("fig3a's first table is not the build of every row from the entry's seed")
	}

	seed := base.RootSeed
	history, err := core.HistorySplit(fb, schedules, base.UserDegree, 3, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := core.Churn(fb, schedules, base.UserDegree, 5, base.Repeats, seed)
	if err != nil {
		t.Fatal(err)
	}
	load, err := core.ReplicaLoadBalance(fb, schedules, replica.ConRep, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	protocol, err := core.RunProtocolValidation(core.ProtocolConfig{Dataset: fb, Schedules: schedules, UserDegree: base.UserDegree, Seed: seed, MaxWalls: 25, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][][]float64{
		"ablation-history":    {{history.HistoricalAoDActivity, history.OracleAoDActivity, history.RandomAoDActivity}},
		"experiment-protocol": {protocol.Series("").Y},
	}
	for _, r := range churn {
		want["ablation-churn"] = append(want["ablation-churn"], r.Availability)
	}
	for _, r := range load {
		want["experiment-loadbalance"] = append(want["experiment-loadbalance"], []float64{r.MeanLoad, r.MaxLoad, r.CV})
	}
	for i, id := range ids[1:] {
		got := figs[i+1]
		if len(got.Series) != len(want[id]) {
			t.Fatalf("%s has %d series, want %d", id, len(got.Series), len(want[id]))
		}
		for si, s := range got.Series {
			if !slices.Equal(s.Y, want[id][si]) {
				t.Errorf("%s %s = %v, its runner on fig3a's table %v", id, s.Label, s.Y, want[id][si])
			}
		}
		before = tables.Value()
		_, own, err := runFigures(base, []string{id}, 2)
		if err != nil {
			t.Fatalf("Figures(%s): %v", id, err)
		}
		if !reflect.DeepEqual(own[0], got) {
			t.Errorf("%s: rendered alone and among the others differently", id)
		}
		if built := tables.Value() - before; built != 1 {
			t.Errorf("%s alone built %d tables, want the one it reads", id, built)
		}
	}
}

// cachedTables returns the tables of j's schedule entry in d's caches.
func cachedTables(t *testing.T, d *door, j job) []*onlinetime.Table {
	t.Helper()
	cached, _, err := d.shared.schedules[j.table()].get(func() ([]*onlinetime.Table, error) {
		return nil, fmt.Errorf("%s's entry is not cached", j.name())
	})
	if err != nil {
		t.Fatal(err)
	}
	return cached
}

// firstCachedTable returns the first table of j's schedule entry in d's
// caches and whether it is the build of every row from the entry's seed.
func firstCachedTable(t *testing.T, d *door, fb *trace.Dataset, j job) (*onlinetime.Table, bool) {
	t.Helper()
	first := cachedTables(t, d, j)[0]
	full := onlinetime.ComputeTable(onlinetime.Sporadic{}, fb, j.table().seed(0), 1)
	return first, reflect.DeepEqual(first.Bitmaps(), full.Bitmaps())
}

// TestExperimentsShareFig9Entry: Fig. 9's cells at user degrees
// 1..UserDegree, Fig. 3a's cell and the experiments read one schedule entry,
// because a table's seed reads none of their user degrees: fig9a alone
// builds Repeats tables, not Repeats per degree. With X4 among the readers,
// the entry's first table fills every row and each other table exactly the
// union of the degrees' analysis closures, each filled row the full build's.
// Not parallel: it reads a process-wide counter.
func TestExperimentsShareFig9Entry(t *testing.T) {
	base := figureBase()
	base.Repeats = 3
	tables := obs.C("onlinetime.tables_built")
	before := tables.Value()
	if _, err := Figures(base, []string{"fig9a"}); err != nil {
		t.Fatalf("Figures(fig9a): %v", err)
	}
	if got := tables.Value() - before; got != int64(base.Repeats) {
		t.Errorf("fig9a alone built %d tables, want %d: one entry across its user degrees", got, base.Repeats)
	}

	d, _, err := runFigures(base, []string{"fig9a", "fig3a", "experiment-loadbalance"}, 2)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	if n := len(d.shared.schedules); n != 1 {
		t.Fatalf("%d schedule entries, want the one Fig. 9, Fig. 3a and X4 share", n)
	}
	fb, err := d.shared.named(d.base, "facebook")
	if err != nil {
		t.Fatal(err)
	}
	j := figureByID(t, d.base, "fig3a").cells[0]
	if _, whole := firstCachedTable(t, d, fb, j); !whole {
		t.Error("the shared entry's first table is not the build of every row from its seed")
	}
	union := map[socialgraph.UserID]bool{}
	for degree := 1; degree <= base.UserDegree; degree++ {
		rows, err := core.AnalysisRows(fb.Graph, degree)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err) // figureBase has users at every degree up to 10
		}
		for _, u := range rows {
			union[u] = true
		}
	}
	own, err := core.AnalysisRows(fb.Graph, base.UserDegree)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) <= len(own) || len(union) >= fb.NumUsers() {
		t.Fatalf("the closures' union has %d of %d rows, degree %d's closure %d: the check cannot tell the row sets apart",
			len(union), fb.NumUsers(), base.UserDegree, len(own))
	}
	cached := cachedTables(t, d, j)
	for rep := 1; rep < len(cached); rep++ {
		full := onlinetime.ComputeTable(onlinetime.Sporadic{}, fb, j.table().seed(rep), 1)
		for u := range full.Bitmaps() {
			got, want := &cached[rep].Bitmaps()[u], &full.Bitmaps()[u]
			if union[socialgraph.UserID(u)] && !got.Equal(want) {
				t.Errorf("rep %d: row %d of the closures' union differs from the full build", rep, u)
			} else if !union[socialgraph.UserID(u)] && !got.IsEmpty() {
				t.Errorf("rep %d: row %d outside the closures' union is filled", rep, u)
			}
		}
	}
}

// TestExperimentsHonourUserDegree: A2, A3, X1/X2 and X6 score the owners of
// the base's user degree, the sweep cells' population, so their output moves
// with it; X4 places every user's replicas and stays put.
func TestExperimentsHonourUserDegree(t *testing.T) {
	ids := []string{"ablation-history", "ablation-churn", "experiment-protocol", "experiment-arch", "experiment-loadbalance"}
	moves := map[string]bool{"ablation-history": true, "ablation-churn": true, "experiment-protocol": true, "experiment-arch": true}
	var runs [][]plot.Figure
	for _, degree := range []int{8, 10} {
		base := figureBase()
		base.Datasets = []DatasetSpec{{Name: "facebook", Users: 2000}}
		base.UserDegree, base.Repeats = degree, 2
		d, figs, err := runFigures(base, ids, 2)
		if err != nil {
			t.Fatalf("user degree %d: %v", degree, err)
		}
		runs = append(runs, figs)
		fb, err := d.shared.named(d.base, "facebook")
		if err != nil {
			t.Fatal(err)
		}
		owners := fb.Graph.UsersWithDegree(degree)
		schedules, _ := firstCachedTable(t, d, fb, figureByID(t, d.base, "fig3a").cells[0])

		// A2 scores the owners with activity in the evaluation half.
		history, err := core.HistorySplit(fb, schedules, degree, 3, 0.5, base.RootSeed)
		if err != nil {
			t.Fatal(err)
		}
		from, to, _ := fb.TimeBounds()
		split := from.Add(to.Sub(from) / 2)
		evaluated := 0
		for _, u := range owners {
			if len(fb.ReceivedIdxBetween(u, split, to)) > 0 {
				evaluated++
			}
		}
		if history.Users != evaluated || evaluated == 0 {
			t.Errorf("degree %d: A2 scored %d users, want the %d degree-%d owners with evaluation activity", degree, history.Users, evaluated, degree)
		}
		if got, want := figs[0].Series[0].Y, []float64{history.HistoricalAoDActivity, history.OracleAoDActivity, history.RandomAoDActivity}; !reflect.DeepEqual(got, want) {
			t.Errorf("degree %d: A2 = %v, want %v", degree, got, want)
		}

		// X1/X2 simulates the first 25 owners' walls and their posts.
		walls := owners[:min(25, len(owners))]
		posts := 0
		for _, u := range walls {
			posts += len(fb.ReceivedIdx(u))
		}
		if y := figs[2].Series[0].Y; y[0] != float64(len(walls)) || y[1] != float64(posts) {
			t.Errorf("degree %d: X1/X2 ran %v walls with %v posts, want %d with %d", degree, y[0], y[1], len(walls), posts)
		}

		// X6 routes one lookup per (owner, friend) pair.
		arch, err := core.RunArchComparison(core.ArchConfig{Dataset: fb, Architectures: []string{"RandomDHT"},
			MaxDegree: 5, UserDegree: degree, Repeats: base.Repeats, Seed: base.RootSeed})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := arch[0].Lookup.Lookups, len(owners)*degree; got != want {
			t.Errorf("degree %d: X6 routed %d lookups, want %d", degree, got, want)
		}
		i := slices.IndexFunc(figs[3].Series, func(s plot.Series) bool { return s.Label == "RandomDHT" })
		if i < 0 || figs[3].Series[i].Y[3] != arch[0].Lookup.MeanHops {
			t.Errorf("degree %d: X6's RandomDHT row does not route the degree-%d owners' lookups", degree, degree)
		}
	}
	for i, id := range ids {
		if same := reflect.DeepEqual(runs[0][i].Series, runs[1][i].Series); same == moves[id] {
			t.Errorf("%s: output equal at user degrees 8 and 10 = %v, want %v", id, same, !moves[id])
		}
	}
}
