package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dosn/internal/trace"
)

func testSuite(t testing.TB) *Suite {
	t.Helper()
	fb := trace.DefaultFacebookConfig(400)
	fb.MeanDegree = 12
	fb.SigmaDegree = 0.6
	fb.Seed = 33
	tw := trace.DefaultTwitterConfig(400)
	tw.MeanDegree = 12
	tw.SigmaDegree = 0.6
	tw.Seed = 44
	return &Suite{
		Facebook: trace.MustSynthesize(fb),
		Twitter:  trace.MustSynthesize(tw),
		Opts:     Options{MaxDegree: 6, UserDegree: 10, Repeats: 1, Seed: 5},
	}
}

func TestStandardPanelsCoverPaperFigures(t *testing.T) {
	s := testSuite(t)
	byFig := map[string]int{}
	seen := map[string]bool{}
	for _, f := range s.figures() {
		byFig[strings.TrimRight(f.id, "abcd")]++
		if seen[f.id] {
			t.Errorf("duplicate panel id %s", f.id)
		}
		seen[f.id] = true
		if f.xs != nil && len(f.xs) != len(f.sweeps) {
			t.Errorf("panel %s has %d x values for %d sweeps", f.id, len(f.xs), len(f.sweeps))
		}
		for _, sw := range f.sweeps {
			if sw.dataset != "facebook" && sw.dataset != "twitter" {
				t.Errorf("panel %s has unknown dataset %q", f.id, sw.dataset)
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
// gives exactly what one Figure call per ID gives, while each distinct sweep
// runs once — counted by the users the engine swept (per repetition), which
// a skipped or repeated sweep would change. An entry that computes its own
// series (X6 runs sweeps of its own) adds the same count to both. Not
// parallel: it reads a process-wide counter.
func TestFiguresRunEachSweepOnce(t *testing.T) {
	s := testSuite(t)
	ids := s.FigureIDs()
	var perID, distinct int64
	var sweeps int
	seen := map[sweep]bool{}
	for _, f := range s.figures() {
		for _, sw := range f.sweeps {
			ds := s.Facebook
			if sw.dataset == "twitter" {
				ds = s.Twitter
			}
			n := int64(len(ds.Graph.UsersWithDegree(sw.userDegree)) * s.Opts.Repeats)
			perID += n
			if !seen[sw] {
				seen[sw] = true
				distinct += n
				sweeps++
			}
		}
	}
	// 10 degree-panel sweeps (Fig. 3's four models, Fig. 4's two UnconRep
	// ones, Fig. 10's four), Fig. 8's seven session lengths, A1's one and
	// one per user degree 1..UserDegree that has users for Fig. 9; at
	// MaxDegree 6, Fig. 9's degree 10 is not Fig. 3a's sweep.
	want := 10 + 7 + 1
	for d := 1; d <= s.Opts.UserDegree; d++ {
		if len(s.Facebook.Graph.UsersWithDegree(d)) > 0 {
			want++
		}
	}
	if sweeps != want {
		t.Fatalf("%d distinct sweeps, want %d", sweeps, want)
	}

	var computed []string
	for _, f := range s.figures() {
		if f.series != nil {
			computed = append(computed, f.id)
		}
	}
	before := obsUsersSwept.Value()
	if _, err := s.Figures(computed); err != nil {
		t.Fatalf("Figures(%v): %v", computed, err)
	}
	own := obsUsersSwept.Value() - before
	distinct += own
	perID += own

	before = obsUsersSwept.Value()
	all, err := s.Figures(ids)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	if got := obsUsersSwept.Value() - before; got != distinct {
		t.Errorf("Figures swept %d users, want %d (each of %d distinct sweeps once)", got, distinct, sweeps)
	}

	before = obsUsersSwept.Value()
	for i, id := range ids {
		fig, err := s.Figure(id)
		if err != nil {
			t.Fatalf("Figure(%s): %v", id, err)
		}
		if !reflect.DeepEqual(fig, all[i]) {
			t.Errorf("%s: Figures and Figure render differently", id)
		}
	}
	if got := obsUsersSwept.Value() - before; got != perID {
		t.Errorf("per-ID Figure calls swept %d users, want %d", got, perID)
	}
}

func TestSuiteFigureIDsResolve(t *testing.T) {
	s := testSuite(t)
	ids := s.FigureIDs()
	if len(ids) < 30 {
		t.Fatalf("suite lists only %d figures", len(ids))
	}
	// Spot-check one panel id per figure family to keep the test fast.
	for _, id := range []string{"fig2", "fig3a", "fig4b", "fig5c", "fig7d", "fig10a", "fig11b", "ablation-churn"} {
		fig, err := s.Figure(id)
		if err != nil {
			t.Fatalf("Figure(%s): %v", id, err)
		}
		if fig.ID != id || len(fig.Series) == 0 {
			t.Errorf("Figure(%s) = %q with %d series", id, fig.ID, len(fig.Series))
		}
	}
}

func TestSuiteUnknownFigure(t *testing.T) {
	s := testSuite(t)
	_, err := s.Figure("fig99")
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

func TestSuiteMissingDataset(t *testing.T) {
	s := testSuite(t)
	s.Twitter = nil
	for _, id := range []string{"fig10a", "fig2"} {
		if _, err := s.Figure(id); err == nil {
			t.Errorf("%s: missing dataset must error", id)
		}
	}
	s.Facebook = nil
	for _, id := range []string{"ablation-history", "experiment-arch"} {
		if _, err := s.Figure(id); !errors.Is(err, ErrNoDataset) {
			t.Errorf("%s without a dataset: err = %v, want ErrNoDataset", id, err)
		}
	}
}

func TestDegreeDistributionFigure(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig2")
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, series := range fig.Series {
		total := 0.0
		for _, y := range series.Y {
			total += y
		}
		if int(total) != 400 {
			t.Errorf("%s histogram sums to %v, want 400 users", series.Label, total)
		}
	}
}

func TestSessionLengthFigureShape(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig8a")
	if err != nil {
		t.Fatalf("fig8a: %v", err)
	}
	if !fig.LogX || fig.ID != "fig8a" {
		t.Errorf("figure meta = %+v", fig)
	}
	// Fig. 8a: availability rises with session length for every policy;
	// compare the shortest against the longest session.
	for _, series := range fig.Series {
		first, last := series.Y[0], series.Y[len(series.Y)-1]
		if last <= first {
			t.Errorf("%s: availability should grow with session length (%.3f → %.3f)",
				series.Label, first, last)
		}
	}
	// At 100 000 s (≈28 h) sessions cover the whole day: availability ≈ 1.
	for _, series := range fig.Series {
		if series.Y[len(series.Y)-1] < 0.95 {
			t.Errorf("%s: availability at 100000s = %.3f, want ≈1", series.Label, series.Y[len(series.Y)-1])
		}
	}
}

func TestSessionLengthDelayFalls(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig8d")
	if err != nil {
		t.Fatalf("fig8d: %v", err)
	}
	for _, series := range fig.Series {
		first, last := series.Y[0], series.Y[len(series.Y)-1]
		if last >= first {
			t.Errorf("%s: delay should fall with session length (%.2f → %.2f)",
				series.Label, first, last)
		}
	}
}

func TestUserDegreeFigureShape(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig9a")
	if err != nil {
		t.Fatalf("fig9a: %v", err)
	}
	if fig.ID != "fig9a" || len(fig.Series) != 3 {
		t.Fatalf("figure meta: id=%s series=%d", fig.ID, len(fig.Series))
	}
	// Fig. 9a: with all friends allowed as replicas, every policy reaches
	// the same (maximum) availability, and availability grows with degree.
	for i := 1; i < len(fig.Series); i++ {
		a, b := fig.Series[0], fig.Series[i]
		for j := range a.Y {
			if d := a.Y[j] - b.Y[j]; d > 0.02 || d < -0.02 {
				t.Errorf("policies differ at degree %v: %.3f vs %.3f (all-friends budget should equalize)",
					a.X[j], a.Y[j], b.Y[j])
			}
		}
	}
	for _, series := range fig.Series {
		if series.Y[len(series.Y)-1] <= series.Y[0] {
			t.Errorf("%s: availability should grow with user degree", series.Label)
		}
	}
}

func TestRunPanelRendersAndWrites(t *testing.T) {
	s := testSuite(t)
	fig, err := s.Figure("fig3a")
	if err != nil {
		t.Fatalf("fig3a: %v", err)
	}
	var dat, txt bytes.Buffer
	if err := fig.WriteDat(&dat); err != nil {
		t.Fatalf("WriteDat: %v", err)
	}
	if err := fig.Render(&txt, 60, 12); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(dat.String(), "MaxAv") || !strings.Contains(txt.String(), "MaxAv") {
		t.Error("figure output incomplete")
	}
}
