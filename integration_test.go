package dosn_test

import (
	"bytes"
	"testing"

	"dosn"
)

// TestEndToEndPipeline exercises the full stack on one small dataset:
// synthesis → filtering → sweep → figure rendering → protocol runtime →
// serialization round trip. It is the smoke test a release would gate on.
func TestEndToEndPipeline(t *testing.T) {
	cfg := dosn.FacebookConfig(400)
	cfg.MeanDegree = 12
	cfg.SigmaDegree = 0.6
	cfg.Seed = 77
	raw, err := dosn.Synthesize(cfg)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	ds := raw.FilterMinActivity(10)
	if ds.NumUsers() == 0 {
		t.Fatal("filter removed everyone")
	}

	// Analytic sweep.
	res, err := dosn.RunSweep(dosn.SweepConfig{
		Dataset:    ds,
		Model:      dosn.NewSporadic(0),
		Mode:       dosn.ConRep,
		MaxDegree:  5,
		UserDegree: 10,
		Repeats:    2,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	maxavFinal := res.Last(0, dosn.MetricAvailability)
	if maxavFinal <= res.Value(0, 0, dosn.MetricAvailability) {
		t.Error("replication should improve availability")
	}

	// Figure rendering paths.
	fig := dosn.Figure{
		ID: "it", Title: "integration", XLabel: "degree", YLabel: "availability",
		Series: res.MetricSeries(dosn.MetricAvailability),
	}
	var dat, txt bytes.Buffer
	if err := fig.WriteDat(&dat); err != nil {
		t.Fatalf("WriteDat: %v", err)
	}
	if err := fig.Render(&txt, 40, 8); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if dat.Len() == 0 || txt.Len() == 0 {
		t.Error("empty figure output")
	}

	// Protocol runtime on the same dataset.
	proto, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
		Dataset:   ds,
		Schedules: dosn.BuildScheduleTable(dosn.NewSporadic(0), ds, 2, 1),
		MaxWalls:  5,
		Days:      3,
		Seed:      2,
	})
	if err != nil {
		t.Fatalf("protocol: %v", err)
	}
	if proto.Posts == 0 || proto.MeasuredMaxHours > proto.AnalyticWorstHours+0.5 {
		t.Errorf("protocol result inconsistent: %+v", proto)
	}

	// Dataset serialization round trip.
	var g, a bytes.Buffer
	if err := dosn.WriteDataset(ds, &g, &a); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	back, err := dosn.ReadDataset(ds.Name, &g, &a)
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	res2, err := dosn.RunSweep(dosn.SweepConfig{
		Dataset:    back,
		Model:      dosn.NewSporadic(0),
		Mode:       dosn.ConRep,
		MaxDegree:  5,
		UserDegree: 10,
		Repeats:    2,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("sweep on reloaded dataset: %v", err)
	}
	if got := res2.Last(0, dosn.MetricAvailability); got != maxavFinal {
		t.Errorf("reloaded dataset sweep differs: %v vs %v", got, maxavFinal)
	}
}

// TestPolicyContractsAtFacadeLevel pins the paper's headline ordering on a
// fresh dataset through the public API only.
func TestPolicyContractsAtFacadeLevel(t *testing.T) {
	ds, err := dosn.Facebook(600, 5)
	if err != nil {
		t.Fatalf("Facebook: %v", err)
	}
	res, err := dosn.RunSweep(dosn.SweepConfig{
		Dataset:    ds,
		Model:      dosn.NewRandomLength(),
		Mode:       dosn.ConRep,
		MaxDegree:  8,
		UserDegree: 10,
		Repeats:    3,
		Seed:       4,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	for di := range res.Degrees {
		maxav := res.Value(0, di, dosn.MetricAvailability)
		random := res.Value(2, di, dosn.MetricAvailability)
		if maxav+1e-9 < random {
			t.Errorf("degree %d: MaxAv %.4f below Random %.4f", di, maxav, random)
		}
	}
}
