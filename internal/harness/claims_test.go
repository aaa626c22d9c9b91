package harness

import (
	"bytes"
	"strings"
	"testing"

	"dosn/internal/plot"
	"dosn/internal/trace"
)

// TestClaimsVerdicts: each E row's verdict follows the sign of its margin,
// and an S row holds only on the stated number exactly.
func TestClaimsVerdicts(t *testing.T) {
	twitter := func(top float64) map[string]plot.Figure {
		figs := map[string]plot.Figure{}
		for _, id := range []string{"fig11b", "fig11c", "fig11d"} {
			figs[id] = plot.Figure{Series: []plot.Series{plot.Categorical("MaxAv", 0.5, top)}}
		}
		return figs
	}
	for _, tc := range []struct {
		name    string
		ev      evidence
		id      string
		verdict string
		margin  float64
	}{
		{"E1 short", evidence{cells: []CellResult{{Mode: "ConRep", Policies: []string{"MaxAv"}, Degrees: []int{0, 1, 2},
			Metrics: map[string][][]float64{"effective_replicas": {{0, 1, 1.25}}}}}}, "E1", "holds", 0.75},
		{"E1 full", evidence{cells: []CellResult{{Mode: "ConRep", Policies: []string{"MaxAv"}, Degrees: []int{0, 1, 2},
			Metrics: map[string][][]float64{"effective_replicas": {{0, 1, 2}}}}}}, "E1", "refuted", 0},
		{"E1 UnconRep only", evidence{cells: []CellResult{{Mode: "UnconRep", Policies: []string{"MaxAv"}, Degrees: []int{0, 1},
			Metrics: map[string][][]float64{"effective_replicas": {{0, 0}}}}}}, "E1", "refuted", 0},
		{"E2 below", evidence{figs: twitter(0.75)}, "E2", "holds", 0.25},
		{"E2 reaches 1", evidence{figs: twitter(1)}, "E2", "refuted", 0},
		{"E3", evidence{figs: map[string]plot.Figure{"ablation-history": {Series: []plot.Series{plot.Categorical("AoD-activity", 0.5, 0.75, 0.625)}}}},
			"E3", "refuted", -0.125},
		{"E4", evidence{figs: map[string]plot.Figure{
			"ablation-objective-aodact": {Series: []plot.Series{plot.Categorical("MaxAv", 0, 0.5), plot.Categorical("MaxAv(activity)", 0, 0.75)}},
			"ablation-objective-avail":  {Series: []plot.Series{plot.Categorical("MaxAv", 0, 0.5), plot.Categorical("MaxAv(activity)", 0, 0.375)}},
		}}, "E4", "holds", 0.125},
		{"E5 equal", evidence{figs: map[string]plot.Figure{"experiment-protocol": {Series: []plot.Series{plot.Categorical("MaxAv/ConRep/Sporadic", 1, 2, 8, 8)}}}},
			"E5", "holds", 0},
	} {
		var got *Claim
		for _, c := range effectRows(tc.ev) {
			if c.ID == tc.id {
				got = &c
				break
			}
		}
		switch {
		case got == nil:
			t.Errorf("%s: no %s row", tc.name, tc.id)
		case got.Verdict != tc.verdict || got.Margin != tc.margin:
			t.Errorf("%s: %s %s %v, want %s %v (%s)", tc.name, tc.id, got.Verdict, got.Margin, tc.verdict, tc.margin, got.Measured)
		}
	}

	fb, err := buildDataset(DatasetSpec{Name: "facebook", Users: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range setupRows(map[string]*trace.Dataset{"facebook": fb, "twitter": fb}) {
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
		if c.Of == 0 || c.Held > c.Of {
			t.Errorf("shape %q counts %d/%d", c.Statement, c.Held, c.Of)
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
