package dosn

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func smallFacebook(t testing.TB) *Dataset {
	t.Helper()
	cfg := FacebookConfig(400)
	cfg.MeanDegree = 12
	cfg.SigmaDegree = 0.6
	cfg.Seed = 21
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return d
}

func TestFacebookTwitterConstructors(t *testing.T) {
	fb, err := Facebook(300, 1)
	if err != nil {
		t.Fatalf("Facebook: %v", err)
	}
	if fb.Name != "facebook" || fb.NumUsers() == 0 {
		t.Errorf("fb = %s/%d users", fb.Name, fb.NumUsers())
	}
	tw, err := Twitter(300, 2)
	if err != nil {
		t.Fatalf("Twitter: %v", err)
	}
	if tw.Name != "twitter" || tw.NumUsers() == 0 {
		t.Errorf("tw = %s/%d users", tw.Name, tw.NumUsers())
	}
	// The paper's filter: every kept user created ≥10 activities in the
	// unfiltered trace, so the filtered averages stay near the calibration.
	if perUser := fb.Stats().ActivitiesPerUser; perUser < 10 {
		t.Errorf("filtered facebook has %.1f activities/user", perUser)
	}
}

func TestRunSweepThroughFacade(t *testing.T) {
	ds := smallFacebook(t)
	res, err := RunSweep(SweepConfig{
		Dataset:    ds,
		Model:      NewSporadic(0),
		Mode:       ConRep,
		MaxDegree:  5,
		UserDegree: 10,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	series := res.MetricSeries(MetricAvailability)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != 6 {
			t.Errorf("%s has %d points, want 6", s.Label, len(s.X))
		}
	}
}

func TestModelConstructors(t *testing.T) {
	if NewSporadic(10*time.Minute).Name() != "Sporadic" {
		t.Error("Sporadic name")
	}
	if NewFixedLength(4).Name() != "FixedLength(4h)" {
		t.Error("FixedLength name")
	}
	if NewRandomLength().Name() != "RandomLength" {
		t.Error("RandomLength name")
	}
	if len(DefaultModels()) != 4 || len(DefaultPolicies()) != 3 {
		t.Error("default sets")
	}
	if MaxAv.Name() != "MaxAv" || MostActive.Name() != "MostActive" || RandomPolicy.Name() != "Random" {
		t.Error("policy vars")
	}
}

func TestDatasetRoundTripThroughFacade(t *testing.T) {
	ds := smallFacebook(t)
	var g, a bytes.Buffer
	if err := WriteDataset(ds, &g, &a); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	back, err := ReadDataset(ds.Name, &g, &a)
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	if back.NumUsers() != ds.NumUsers() || back.NumActivities() != ds.NumActivities() {
		t.Error("round trip mismatch")
	}
}

// TestSuiteThroughFacade: the figure door through the facade renders a
// figure by ID over a base spec.
func TestSuiteThroughFacade(t *testing.T) {
	spec := MatrixSpec{
		Datasets:   []MatrixDataset{{Name: "facebook", Users: 300}, {Name: "twitter", Users: 300}},
		MaxDegree:  4,
		UserDegree: 10,
		Repeats:    1,
		RootSeed:   3,
	}
	figs, err := Figures(spec, []string{"fig2"})
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	fig := figs[0]
	var buf bytes.Buffer
	if err := fig.PrintTable(&buf); err != nil {
		t.Fatalf("PrintTable: %v", err)
	}
	if !strings.Contains(buf.String(), "Facebook") {
		t.Errorf("fig2 table:\n%s", buf.String())
	}
}

func TestProtocolValidationThroughFacade(t *testing.T) {
	ds := smallFacebook(t)
	res, err := RunProtocolValidation(ProtocolConfig{
		Dataset: ds, Schedules: BuildScheduleTable(NewSporadic(0), ds, 1, 1), MaxWalls: 5, Days: 3, Seed: 1,
	})
	if err != nil {
		t.Fatalf("RunProtocolValidation: %v", err)
	}
	if res.Walls == 0 {
		t.Error("no walls simulated")
	}
}

func TestMatrixThroughFacade(t *testing.T) {
	spec := MatrixSpec{
		Datasets:   []MatrixDataset{{Name: "facebook", Users: 300, Seed: 1}},
		Models:     []MatrixModel{{Kind: "sporadic"}},
		Modes:      []string{"ConRep"},
		MaxDegree:  3,
		UserDegree: 0,
		Repeats:    1,
		RootSeed:   7,
	}
	m, err := RunMatrix(spec, MatrixOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if len(m.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(m.Cells))
	}
	if _, ok := m.Cell("facebook", "Sporadic", "ConRep"); !ok {
		t.Error("cell lookup failed")
	}
	if full := PaperMatrix(2000); len(full.Cells()) != 24 {
		t.Errorf("PaperMatrix enumerates %d cells, want 24", len(full.Cells()))
	}
}

func TestArchComparisonThroughFacade(t *testing.T) {
	ds := smallFacebook(t)
	rows, err := RunArchComparison(ArchConfig{
		Dataset:       ds,
		Architectures: []string{ArchFriendReplica, ArchRandomDHT, ArchSocialDHT},
		MaxDegree:     3,
		Repeats:       1,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("RunArchComparison: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Architecture != ArchFriendReplica || rows[1].Lookup.Lookups == 0 {
		t.Errorf("unexpected rows: %+v", rows)
	}
	spec := MatrixSpec{
		Datasets:      []MatrixDataset{{Name: "facebook", Users: 300, Seed: 1}},
		Models:        []MatrixModel{{Kind: "sporadic"}},
		Modes:         []string{"ConRep"},
		Architectures: []string{ArchRandomDHT},
		MaxDegree:     3,
		Repeats:       1,
		RootSeed:      7,
	}
	m, err := RunMatrix(spec, MatrixOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunMatrix with architectures: %v", err)
	}
	if cell, ok := m.CellWithArch("facebook", "Sporadic", "ConRep", ArchRandomDHT); !ok || cell.Policies[0] != "RandomDHT" {
		t.Errorf("DHT cell missing or mislabeled: %+v ok=%v", cell, ok)
	}
}

// TestBadConfigsFailWithErrorsNotPanics pins the error routing of every
// construction path a command or library user can reach: degenerate configs
// must surface as errors with messages, never as trace.MustSynthesize-style
// panics (MustSynthesize is reserved for tests with hard-coded configs).
func TestBadConfigsFailWithErrorsNotPanics(t *testing.T) {
	if _, err := Synthesize(SynthConfig{}); err == nil {
		t.Error("Synthesize(zero config) should fail with an error")
	}
	bad := FacebookConfig(100)
	bad.MeanDegree = math.NaN()
	if _, err := Synthesize(bad); err == nil {
		t.Error("Synthesize(NaN MeanDegree) should fail with an error")
	}
	if _, err := SynthesizeCalibrated("bogus", 100, 1, 0); err == nil {
		t.Error("SynthesizeCalibrated(bogus) should fail with an error")
	}
	if _, err := SynthesizeCalibrated("facebook", -3, 1, 0); err == nil {
		t.Error("SynthesizeCalibrated(users=-3) should fail with an error")
	}
	if _, err := Facebook(0, 1); err == nil {
		t.Error("Facebook(0 users) should fail with an error")
	}
	zero := MatrixSpec{Datasets: []MatrixDataset{{Name: "facebook", Users: 0}, {Name: "twitter", Users: 100}}, UserDegree: 10}
	if _, err := Figures(zero, []string{"fig2"}); err == nil {
		t.Error("Figures over 0 facebook users should fail with an error")
	}
}
