// Golden regression suite: every reproduced figure of the paper (Fig. 2–11)
// plus the extension/ablation experiments is replayed at small scale and
// compared, series by series, against a committed snapshot under
// testdata/golden/. The snapshots pin the *science*: any refactor, scaling or
// caching PR that silently changes a reproduced number fails here.
//
// Regenerate snapshots after an intentional change with:
//
//	go test -run TestGolden -update ./...
//
// and review the diff like any other code change.
package dosn_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dosn"
	"dosn/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

const goldenDir = "testdata/golden"

// tolerance bounds the acceptable per-value drift when comparing against a
// snapshot: |got-want| <= Abs + Rel*|want|.
type tolerance struct {
	Abs float64
	Rel float64
}

func (tol tolerance) close(got, want float64) bool {
	return math.Abs(got-want) <= tol.Abs+tol.Rel*math.Abs(want)
}

// Per-metric tolerances. Everything is deterministic on one platform; the
// slack only absorbs math-library differences across architectures and Go
// releases, scaled to each metric's magnitude.
var (
	tolFraction = tolerance{Abs: 1e-9, Rel: 1e-9} // availability & AoD fractions in [0,1]
	tolHours    = tolerance{Abs: 1e-7, Rel: 1e-7} // delays, tens of hours
	tolCount    = tolerance{Abs: 0, Rel: 0}       // integer-valued series (histograms)
	tolLoad     = tolerance{Abs: 1e-7, Rel: 1e-7} // load-balance statistics
)

// goldenSpec is the base every golden figure is a view of: the CLI's
// -scale small datasets, degrees up to 6, two repetitions.
var goldenSpec = dosn.MatrixSpec{
	Datasets:   []dosn.MatrixDataset{{Name: "facebook", Users: 2000}, {Name: "twitter", Users: 2000}},
	MaxDegree:  6,
	UserDegree: 10,
	Repeats:    2,
	RootSeed:   42,
}

var (
	goldenOnce  sync.Once
	goldenState struct {
		figs map[string]dosn.Figure
		err  error
	}
)

// goldenFigure renders every figure of the door over goldenSpec in one
// pass, once, and returns the one with the given ID.
func goldenFigure(t *testing.T, id string) dosn.Figure {
	t.Helper()
	goldenOnce.Do(func() {
		ids := dosn.FigureIDs()
		figs, err := dosn.Figures(goldenSpec, ids)
		if err != nil {
			goldenState.err = err
			return
		}
		goldenState.figs = make(map[string]dosn.Figure, len(figs))
		for i, id := range ids {
			goldenState.figs[id] = figs[i]
		}
	})
	if goldenState.err != nil {
		t.Fatalf("render golden figures: %v", goldenState.err)
	}
	fig, ok := goldenState.figs[id]
	if !ok {
		t.Fatalf("figure %s: not rendered", id)
	}
	return fig
}

// goldenEntry is one snapshotted figure or experiment.
type goldenEntry struct {
	id  string
	tol tolerance
	gen func(t *testing.T) dosn.Figure
}

// figEntry snapshots one paper figure or extension experiment rendered
// through the figure door.
func figEntry(id string, tol tolerance) goldenEntry {
	return goldenEntry{id: id, tol: tol, gen: func(t *testing.T) dosn.Figure { return goldenFigure(t, id) }}
}

func goldenEntries() []goldenEntry {
	entries := []goldenEntry{figEntry("fig2", tolCount)}
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b"} {
		entries = append(entries, figEntry(id, tolFraction))
	}
	for _, id := range []string{"fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig6c", "fig6d"} {
		entries = append(entries, figEntry(id, tolFraction))
	}
	for _, id := range []string{"fig7a", "fig7b", "fig7c", "fig7d"} {
		entries = append(entries, figEntry(id, tolHours))
	}
	for _, id := range []string{"fig8a", "fig8b", "fig8c"} {
		entries = append(entries, figEntry(id, tolFraction))
	}
	entries = append(entries, figEntry("fig8d", tolHours))
	entries = append(entries, figEntry("fig9a", tolFraction), figEntry("fig9b", tolHours))
	for _, id := range []string{"fig10a", "fig10b", "fig10c", "fig10d", "fig11a", "fig11b", "fig11c", "fig11d"} {
		entries = append(entries, figEntry(id, tolFraction))
	}
	entries = append(entries,
		figEntry("ablation-objective-aodact", tolFraction),
		figEntry("ablation-objective-avail", tolFraction),
		figEntry("ablation-history", tolFraction),
		figEntry("ablation-churn", tolFraction),
		figEntry("experiment-loadbalance", tolLoad),
		goldenEntry{id: "experiment-protocol", tol: tolHours, gen: protocolFigure},
		figEntry("experiment-arch", tolLoad), // fractions, hours, hops and load statistics
		goldenEntry{id: "matrix-facebook-sporadic-conrep", tol: tolFraction, gen: matrixCellFigure("facebook", "Sporadic", "ConRep", "availability")},
		goldenEntry{id: "matrix-facebook-fixed2-unconrep", tol: tolFraction, gen: matrixCellFigure("facebook", "FixedLength(2h)", "UnconRep", "availability")},
		goldenEntry{id: "matrix-twitter-sporadic-conrep-delay", tol: tolHours, gen: matrixCellFigure("twitter", "Sporadic", "ConRep", "delay_hours")},
		goldenEntry{id: "matrix-facebook-sporadic-conrep-randomdht", tol: tolFraction, gen: matrixArchCellFigure("facebook", "Sporadic", "ConRep", dosn.ArchRandomDHT, "availability")},
		goldenEntry{id: "matrix-twitter-sporadic-unconrep-socialdht", tol: tolFraction, gen: matrixArchCellFigure("twitter", "Sporadic", "UnconRep", dosn.ArchSocialDHT, "availability")},
	)
	return entries
}

// protocolFigure snapshots X1/X2 — every field of the analytic-vs-runtime
// comparison — for the default configuration and for a lossy randomized one
// (MostActive draws placement randomness, FixedLength wraps midnight, loss
// consumes the runtime RNG), so the schedule, placement, read-draw and loss
// streams are all pinned. Unlike the door's experiment-protocol entry, whose
// one configuration pins none of the last three, it builds its own, each
// over a schedule table of its model seeded with the run's seed.
func protocolFigure(t *testing.T) dosn.Figure {
	// goldenSpec's datasets, at the calibrations' default seeds.
	fb, err := dosn.Facebook(goldenSpec.Datasets[0].Users, 1)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := dosn.Twitter(goldenSpec.Datasets[1].Users, 2)
	if err != nil {
		t.Fatal(err)
	}
	fig := dosn.Figure{
		ID:     "experiment-protocol",
		Title:  "X1/X2: protocol-level validation",
		XLabel: "ProtocolResult field index",
		YLabel: "value",
	}
	for _, c := range []struct {
		label string
		cfg   dosn.ProtocolConfig
	}{
		{"MaxAv/ConRep/Sporadic", dosn.ProtocolConfig{
			Dataset: fb, Schedules: dosn.BuildScheduleTable(dosn.NewSporadic(0), fb, 42, 1),
			MaxWalls: 12, Days: 4, Seed: 42,
		}},
		{"MostActive/UnconRep/FixedLength(8h)/loss", dosn.ProtocolConfig{
			Dataset: tw, Schedules: dosn.BuildScheduleTable(dosn.NewFixedLength(8), tw, 42, 1),
			Policy: dosn.MostActive, Mode: dosn.UnconRep, Budget: 4, MaxWalls: 8, Days: 3, LossRate: 0.2, Seed: 42,
		}},
	} {
		res, err := dosn.RunProtocolValidation(c.cfg)
		if err != nil {
			t.Fatalf("protocol validation %s: %v", c.label, err)
		}
		fig.Series = append(fig.Series, res.Series(c.label))
	}
	return fig
}

var (
	goldenMatrixOnce sync.Once
	goldenMatrix     *harness.RunManifest
	goldenMatrixErr  error
)

// matrixCellFigure snapshots one FriendReplica cell of a harness run,
// pinning the matrix seed derivation and the schedule cache alongside the
// engine itself. The run sweeps all three storage architectures; the
// FriendReplica cells must stay byte-identical to the snapshots taken before
// the architecture axis existed (the axis-compatibility guarantee), while
// matrixArchCellFigure pins the DHT cells.
func matrixCellFigure(dataset, model, mode, metricID string) func(t *testing.T) dosn.Figure {
	return matrixArchCellFigure(dataset, model, mode, dosn.ArchFriendReplica, metricID)
}

func matrixArchCellFigure(dataset, model, mode, arch, metricID string) func(t *testing.T) dosn.Figure {
	return func(t *testing.T) dosn.Figure {
		goldenMatrixOnce.Do(func() {
			spec := harness.MatrixSpec{
				Datasets: []harness.DatasetSpec{
					{Name: "facebook", Users: 300, Seed: 1},
					{Name: "twitter", Users: 300, Seed: 2},
				},
				Models:        []harness.ModelSpec{harness.Sporadic(), harness.FixedLength(2)},
				Modes:         []string{"ConRep", "UnconRep"},
				Architectures: []string{dosn.ArchFriendReplica, dosn.ArchRandomDHT, dosn.ArchSocialDHT},
				MaxDegree:     4,
				UserDegree:    0, // modal degree at this scale
				Repeats:       2,
				RootSeed:      7,
			}
			goldenMatrix, goldenMatrixErr = harness.Run(spec, harness.RunOptions{})
		})
		if goldenMatrixErr != nil {
			t.Fatalf("matrix run: %v", goldenMatrixErr)
		}
		cell, ok := goldenMatrix.CellWithArch(dataset, model, mode, arch)
		if !ok {
			t.Fatalf("matrix cell %s/%s/%s/%s missing", dataset, model, mode, arch)
		}
		// FriendReplica keeps the pre-architecture-axis ID and title, so the
		// original snapshots stay byte-identical.
		figID := fmt.Sprintf("matrix-%s-%s-%s-%s", dataset, model, mode, metricID)
		title := fmt.Sprintf("Matrix cell %s/%s/%s: %s", dataset, model, mode, metricID)
		if arch != dosn.ArchFriendReplica {
			figID = fmt.Sprintf("matrix-%s-%s-%s-%s-%s", dataset, model, mode, arch, metricID)
			title = fmt.Sprintf("Matrix cell %s/%s/%s (%s): %s", dataset, model, mode, arch, metricID)
		}
		fig := dosn.Figure{
			ID:     figID,
			Title:  title,
			XLabel: "replication degree",
			YLabel: metricID,
		}
		for pi, policy := range cell.Policies {
			xs := make([]float64, len(cell.Degrees))
			ys := make([]float64, len(cell.Degrees))
			for di, d := range cell.Degrees {
				xs[di] = float64(d)
				v, ok := cell.Value(metricID, pi, di)
				if !ok {
					t.Fatalf("metric %s missing for %s degree %d", metricID, policy, d)
				}
				ys[di] = v
			}
			fig.Series = append(fig.Series, dosn.Series{Label: policy, X: xs, Y: ys})
		}
		return fig
	}
}

// TestGolden replays every snapshotted figure/experiment and compares it
// against testdata/golden.
func TestGolden(t *testing.T) {
	entries := goldenEntries()
	if len(entries) < 10 {
		t.Fatalf("golden corpus shrank to %d entries; the regression net needs at least 10", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.id] {
			t.Fatalf("duplicate golden id %q", e.id)
		}
		seen[e.id] = true
	}
	for _, e := range entries {
		e := e
		t.Run(e.id, func(t *testing.T) {
			fig := e.gen(t)
			path := filepath.Join(goldenDir, e.id+".json")
			if *update {
				writeGolden(t, path, fig)
				return
			}
			want := readGolden(t, path)
			compareFigures(t, e.tol, fig, want)
		})
	}
}

// TestGoldenCorpusHasNoStrays fails when testdata/golden contains snapshots
// no entry regenerates (renamed or deleted experiments leave stale science).
func TestGoldenCorpusHasNoStrays(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, e := range goldenEntries() {
		known[e.id+".json"] = true
	}
	for _, f := range files {
		if !known[filepath.Base(f)] {
			t.Errorf("stray golden file %s: no entry regenerates it", f)
		}
	}
	if len(files) == 0 {
		t.Error("no golden snapshots committed; run go test -run TestGolden -update")
	}
}

func writeGolden(t *testing.T, path string, fig dosn.Figure) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(fig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGolden(t *testing.T, path string) dosn.Figure {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run `go test -run TestGolden -update ./...`): %v", path, err)
	}
	var fig dosn.Figure
	if err := json.Unmarshal(data, &fig); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return fig
}

func compareFigures(t *testing.T, tol tolerance, got, want dosn.Figure) {
	t.Helper()
	if got.ID != want.ID {
		t.Errorf("figure ID = %q, want %q", got.ID, want.ID)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("series count = %d, want %d", len(got.Series), len(want.Series))
	}
	for si := range want.Series {
		g, w := got.Series[si], want.Series[si]
		if g.Label != w.Label {
			t.Errorf("series %d label = %q, want %q", si, g.Label, w.Label)
			continue
		}
		if len(g.X) != len(w.X) || len(g.Y) != len(w.Y) {
			t.Errorf("series %q length = (%d,%d), want (%d,%d)", w.Label, len(g.X), len(g.Y), len(w.X), len(w.Y))
			continue
		}
		for i := range w.X {
			if !tol.close(g.X[i], w.X[i]) {
				t.Errorf("series %q x[%d] = %v, want %v", w.Label, i, g.X[i], w.X[i])
			}
		}
		for i := range w.Y {
			if !tol.close(g.Y[i], w.Y[i]) {
				t.Errorf("series %q y[%d] = %v, want %v (tol %+v)", w.Label, i, g.Y[i], w.Y[i], tol)
			}
		}
	}
}
