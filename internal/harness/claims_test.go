package harness

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"dosn/internal/plot"
	"dosn/internal/trace"
)

// evaluateRows evaluates every row of the claims table over the evidence.
func evaluateRows(ev evidence) []Claim {
	var cs []Claim
	for _, r := range ev.rows() {
		cs = append(cs, r.eval())
	}
	return cs
}

// doorEvidence is the evidence of one pass of the figure door over base.
func doorEvidence(t *testing.T, base MatrixSpec) evidence {
	t.Helper()
	d, figs, err := runFigures(base, FigureIDs(), 0)
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	ev, err := d.evidence(figs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestClaimsVerdicts: each E row's verdict follows the sign of its margin
// over the points that are not forced, a row with no such point has no
// verdict but "no points", and an S row holds only on the stated number
// exactly.
func TestClaimsVerdicts(t *testing.T) {
	twitter := func(top float64) map[string]plot.Figure {
		figs := map[string]plot.Figure{}
		for _, id := range []string{"fig11b", "fig11c", "fig11d"} {
			figs[id] = plot.Figure{Series: []plot.Series{plot.Categorical("MaxAv", 0.5, top)}}
		}
		return figs
	}
	placed := func(mode string, effective ...float64) cell {
		degrees := []int{0, 1, 2}[:len(effective)]
		return cell{CellResult{Mode: mode, Policies: []string{"MaxAv"}, Degrees: degrees,
			Metrics: map[string][][]float64{"effective_replicas": {effective}}}, 10}
	}
	modes := func(cells ...cell) evidence { return evidence{cells: cells} }
	for _, tc := range []struct {
		name    string
		ev      evidence
		id      string
		verdict string
		margin  float64
	}{
		{"E1 short", modes(placed("ConRep", 0, 1, 1.25), placed("UnconRep", 0, 1, 2)), "E1", "holds", 0.75},
		{"E1 equal", modes(placed("ConRep", 0, 1, 1.25), placed("UnconRep", 0, 1, 1.25)), "E1", "refuted", 0},
		{"E1 UnconRep only", modes(placed("UnconRep", 0, 1)), "E1", "no points", 0},
		{"E1 budget 0 only", modes(placed("ConRep", 0), placed("UnconRep", 0)), "E1", "no points", 0},
		{"E2 below", evidence{figs: twitter(0.75)}, "E2", "holds", 0.25},
		{"E2 reaches 1", evidence{figs: twitter(1)}, "E2", "refuted", 0},
		{"E2 without Fig. 11b–d", evidence{figs: map[string]plot.Figure{"fig11a": twitter(0.5)["fig11b"]}}, "E2", "no points", 0},
		{"E3", evidence{figs: map[string]plot.Figure{"ablation-history": {Series: []plot.Series{plot.Categorical("AoD-activity", 0.5, 0.75, 0.625)}}}},
			"E3", "refuted", -0.125},
		{"E4", evidence{figs: map[string]plot.Figure{
			"ablation-objective-aodact": {Series: []plot.Series{plot.Categorical("MaxAv", 0, 0, 0, 0, 0, 0.5), plot.Categorical("MaxAv(activity)", 0, 0, 0, 0, 0, 0.75)}},
			"ablation-objective-avail":  {Series: []plot.Series{plot.Categorical("MaxAv", 0, 0, 0, 0, 0, 0.5), plot.Categorical("MaxAv(activity)", 0, 0, 0, 0, 0, 0.375)}},
		}}, "E4", "holds", 0.125},
		{"E5 equal", evidence{figs: map[string]plot.Figure{"experiment-protocol": {Series: []plot.Series{plot.Categorical("MaxAv/ConRep/Sporadic", 1, 2, 8, 8)}}}},
			"E5", "holds", 0},
	} {
		i := slices.IndexFunc(evaluateRows(tc.ev), func(c Claim) bool { return c.ID == tc.id })
		switch got := evaluateRows(tc.ev)[i]; {
		case got.Verdict != tc.verdict || got.Margin != tc.margin:
			t.Errorf("%s: %s %s %v, want %s %v (%s)", tc.name, tc.id, got.Verdict, got.Margin, tc.verdict, tc.margin, got.Measured)
		case tc.verdict == "no points" && got.Wins+got.Ties+got.Losses > 0:
			t.Errorf("%s: %s has no points yet scores %d/%d/%d", tc.name, tc.id, got.Wins, got.Ties, got.Losses)
		}
	}

	fb, err := buildDataset(DatasetSpec{Name: "facebook", Users: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range evaluateRows(evidence{datasets: map[string]*trace.Dataset{"facebook": fb, "twitter": fb}}) {
		if !strings.HasPrefix(c.ID, "S") {
			continue
		}
		if want := map[bool]string{true: "holds", false: "off"}[c.Margin == 0]; c.Verdict != want {
			t.Errorf("%s %s: verdict %s at margin %v", c.ID, c.Statement, c.Verdict, c.Margin)
		}
		if c.Statement == "Facebook users after the activity filter" && c.Margin != float64(fb.NumUsers()-trace.PaperFacebookUsers) {
			t.Errorf("S5 users margin %v, want %d", c.Margin, fb.NumUsers()-trace.PaperFacebookUsers)
		}
	}
}

// TestClaimsOverTheFigureDoor: the table over a run of the door has every
// ledger row with a verdict and every observed shape with points, and its
// Results text names them all.
func TestClaimsOverTheFigureDoor(t *testing.T) {
	table, err := Claims(figureBase())
	if err != nil {
		t.Fatalf("Claims: %v", err)
	}
	ids := map[string]bool{}
	for _, c := range table.Ledger {
		ids[c.ID] = true
		if c.Verdict != "holds" && c.Verdict != "refuted" && c.Verdict != "off" {
			t.Errorf("%s %s: verdict %q", c.ID, c.Statement, c.Verdict)
		}
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "S5", "S6", "S7", "S8", "S9"} {
		if !ids[id] {
			t.Errorf("the table has no %s row", id)
		}
	}
	for _, c := range table.Shapes {
		if c.Wins+c.Ties+c.Losses == 0 {
			t.Errorf("shape %q has no point that is not forced (%d forced)", c.Statement, c.Forced)
		}
	}
	var out bytes.Buffer
	if err := table.WriteResults(&out, "dosn-sim -fig all"); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(table.Ledger, table.Shapes...) {
		if !strings.Contains(out.String(), c.Statement) {
			t.Errorf("Results text lacks %q", c.Statement)
		}
	}
}

// TestClaimsForcedPointsHold: over the door, the forced points are the
// budget-0 points and Fig. 4's points at the user degree (its two panels'
// three policies), and each of them holds its row's relation — ties between
// the policies, UnconRep at or above ConRep — so a shape's old count of
// points that hold is its wins, ties and forced points.
func TestClaimsForcedPointsHold(t *testing.T) {
	ev := doorEvidence(t, figureBase())
	for _, r := range ev.rows() {
		c := r.eval()
		forced := 0
		for i := range min(len(r.a), len(r.b)) {
			for j := range min(len(r.a[i]), len(r.b[i])) {
				if p := (pair{r.a[i][j], r.b[i][j]}); p.a.forced || p.b.forced {
					forced++
					if r.quant == "count" && !holds(r.rel, p.d()) {
						t.Errorf("%q: a forced point fails: %v against %v", r.statement, p.a.y, p.b.y)
					}
				}
			}
		}
		want := 0
		switch {
		case strings.HasPrefix(r.statement, "UnconRep ≥ ConRep"):
			want = 6
		case strings.Contains(r.statement, "(UnconRep, Fig. 4)"):
			want = 2
		case r.id == "E1": // budget 0 of every policy of the ConRep cells with an UnconRep twin
			for _, c := range ev.cells {
				if c.Mode == "ConRep" && slices.ContainsFunc(ev.cells, func(o cell) bool {
					return o.Mode == "UnconRep" && o.Dataset == c.Dataset && o.Model == c.Model && o.userDegree == c.userDegree
				}) {
					want += len(c.Policies)
				}
			}
		case r.id == "E2": // Fig. 11b–d at degree 0, each policy
			want = 9
		}
		if c.Forced != forced || forced != want {
			t.Errorf("%s %q: %d forced points (%d paired), want %d", r.id, r.statement, c.Forced, forced, want)
		}
	}
}

// counterfeit is evidence altered the way one row's claim could be wrong.
type counterfeit func(ev *evidence)

// swapLabels swaps two series of every figure by their labels.
func swapLabels(a, b string) counterfeit {
	return func(ev *evidence) {
		for id, f := range ev.figs {
			for i, s := range f.Series {
				switch s.Label {
				case a:
					f.Series[i].Label = b
				case b:
					f.Series[i].Label = a
				}
			}
			ev.figs[id] = f
		}
	}
}

// swapPanels swaps the figures xs[i] and ys[i].
func swapPanels(xs, ys []string) counterfeit {
	return func(ev *evidence) {
		for i := range xs {
			ev.figs[xs[i]], ev.figs[ys[i]] = ev.figs[ys[i]], ev.figs[xs[i]]
		}
	}
}

// reverse reverses points from..to-1 of every series of the figures; turned,
// it also negates them (a series turned end over end, its steps reversed).
func reverse(from, to int, turned bool, ids ...string) counterfeit {
	return func(ev *evidence) {
		for _, id := range ids {
			for _, s := range ev.figs[id].Series {
				ys := s.Y[from:min(to, len(s.Y))]
				slices.Reverse(ys)
				for i := range ys {
					ys[i] *= map[bool]float64{false: 1, true: -1}[turned]
				}
			}
		}
	}
}

// clone copies the evidence deep enough for a counterfeit to alter.
func (ev evidence) clone() evidence {
	c := ev
	c.figs, c.datasets, c.cells = maps.Clone(ev.figs), maps.Clone(ev.datasets), slices.Clone(ev.cells)
	for id, f := range c.figs {
		f.Series = slices.Clone(f.Series)
		for i := range f.Series {
			f.Series[i].Y = slices.Clone(f.Series[i].Y)
		}
		c.figs[id] = f
	}
	return c
}

// TestClaimsCounterfeits feeds each row of the table counterfeit evidence —
// two policies' series swapped, a series reversed, two panels or the two
// datasets swapped — and checks that the row answers it: an E row flips its
// verdict, a shape swaps its wins and losses (and has some to swap). A row
// that no counterfeit can move claims nothing; a row without a counterfeit
// here fails the test. E1's counterfeit swaps the modes of the door's
// ConRep and UnconRep cells. An S row compares a dataset with a stated constant, so
// swapping the datasets must move its margin to the other dataset's. The
// door runs at 4,000 users a dataset, where every E row holds.
func TestClaimsCounterfeits(t *testing.T) {
	base := figureBase()
	base.Datasets = []DatasetSpec{{Name: "facebook", Users: 4000}, {Name: "twitter", Users: 4000}}
	ev := doorEvidence(t, base)
	labels := map[string]bool{}
	for _, f := range ev.figs {
		for _, s := range f.Series {
			labels[s.Label] = true
		}
	}
	fig := func(name string, letters string) (ids []string) {
		for _, l := range letters {
			ids = append(ids, name+string(l))
		}
		return ids
	}
	fakes := map[string]counterfeit{
		"E1": func(ev *evidence) {
			for i, c := range ev.cells {
				c.Mode = map[string]string{"ConRep": "UnconRep", "UnconRep": "ConRep"}[c.Mode]
				ev.cells[i] = c
			}
		},
		"E2": swapPanels([]string{"fig11b"}, []string{"fig11a"}), // Sporadic reaches 1
		"E3": reverse(0, 3, false, "ablation-history"),
		"E4": swapLabels("MaxAv", "MaxAv(activity)"),
		"E5": reverse(2, 4, false, "experiment-protocol"),
		"UnconRep ≥ ConRep availability, FixedLength 2 h and 8 h (Fig. 4 vs Fig. 3c, d)": swapPanels(fig("fig4", "ab"), fig("fig3", "cd")),
		"Delay grows with the replication degree (Fig. 7)":                               reverse(1, 11, false, fig("fig7", "abcd")...),
		"Availability gains shrink as the replication degree grows (Figs. 3, 10)":        reverse(0, 11, true, append(fig("fig3", "abcd"), fig("fig10", "abcd")...)...),
		"Availability rises with the Sporadic session length (Fig. 8a)":                  reverse(0, 7, false, "fig8a"),
		"Delay falls as the Sporadic session length grows (Fig. 8d)":                     reverse(0, 7, false, "fig8d"),
		"Availability rises with the user degree (Fig. 9a)":                              reverse(0, 10, false, "fig9a"),
		"Delay grows with the user degree (Fig. 9b)":                                     reverse(0, 10, false, "fig9b"),
		"Facebook ≥ Twitter availability (Fig. 3 vs Fig. 10)":                            swapPanels(fig("fig3", "abcd"), fig("fig10", "abcd")),
		"Facebook ≥ Twitter AoD-time (Fig. 5 vs Fig. 11)":                                swapPanels(fig("fig5", "abcd"), fig("fig11", "abcd")),
	}
	for _, s := range []string{"S5", "S6", "S7", "S8", "S9"} {
		fakes[s] = func(ev *evidence) {
			ev.datasets["facebook"], ev.datasets["twitter"] = ev.datasets["twitter"], ev.datasets["facebook"]
		}
	}
	for i, r := range ev.rows() {
		fake, ok := fakes[r.id]
		if r.id == "" {
			fake, ok = fakes[r.statement]
		}
		// A shape between two policies (or two DHT placements): swap them.
		if a, rest, cut := strings.Cut(strings.Replace(r.statement, " ≤ ", " ≥ ", 1), " ≥ "); !ok && cut {
			b, _, _ := strings.Cut(rest, ", ")
			fake, ok = swapLabels(a, b), labels[a] && labels[b]
		}
		if !ok {
			t.Errorf("%s %q: no counterfeit", r.id, r.statement)
			continue
		}
		forged := ev.clone()
		fake(&forged)
		want, got := r.eval(), forged.rows()[i].eval()
		switch {
		case r.quant == "count":
			if got.Wins != want.Losses || got.Losses != want.Wins || got.Ties != want.Ties || got.Forced != want.Forced || want.Wins == want.Losses {
				t.Errorf("%q: %d/%d/%d/%d wins/ties/losses/forced, counterfeit %d/%d/%d/%d", r.statement,
					want.Wins, want.Ties, want.Losses, want.Forced, got.Wins, got.Ties, got.Losses, got.Forced)
			}
		case strings.HasPrefix(r.id, "S"):
			if got.Margin == want.Margin || (got.Verdict == "holds") != (got.Margin == 0) {
				t.Errorf("%s %q: %s %v, with the datasets swapped %s %v", r.id, r.statement, want.Verdict, want.Margin, got.Verdict, got.Margin)
			}
		case (want.Verdict == "holds") == (got.Verdict == "holds"):
			t.Errorf("%s: %s (%s), counterfeit %s (%s)", r.id, want.Verdict, want.Measured, got.Verdict, got.Measured)
		}
	}
}
