package core

import (
	"errors"
	"testing"

	"dosn/internal/onlinetime"
	"dosn/internal/replica"
)

func TestProtocolValidationBoundsHold(t *testing.T) {
	ds := testDataset(t)
	res, err := RunProtocolValidation(ProtocolConfig{
		Dataset:    ds,
		Schedules:  onlinetime.ComputeTable(onlinetime.FixedLength{Hours: 8}, ds, 3, 1),
		Policy:     replica.MaxAv{},
		Mode:       replica.ConRep,
		Budget:     3,
		UserDegree: 10,
		MaxWalls:   10,
		Days:       7,
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("RunProtocolValidation: %v", err)
	}
	if res.Walls == 0 || res.Posts == 0 {
		t.Fatalf("empty experiment: %+v", res)
	}
	// Measured mean-of-max delay must respect the analytic worst case,
	// modulo the 1-minute propagation rounds.
	if res.MeasuredMaxHours > res.AnalyticWorstHours+0.5 {
		t.Errorf("measured max %.2fh above analytic bound %.2fh",
			res.MeasuredMaxHours, res.AnalyticWorstHours)
	}
	// Observed delay excludes receiver offline time, so it cannot exceed
	// the actual delay.
	if res.ObservedPairHours > res.MeasuredPairHours+1e-9 {
		t.Errorf("observed %.2fh above actual %.2fh", res.ObservedPairHours, res.MeasuredPairHours)
	}
	if res.DeliveredFraction <= 0 {
		t.Error("no posts fully delivered in a week of simulated time")
	}
	if res.Exchanges == 0 || res.PostsTransferred == 0 {
		t.Errorf("protocol did no work: %+v", res)
	}
}

func TestProtocolValidationImmediateTracksAnalyticAoD(t *testing.T) {
	ds := testDataset(t)
	res, err := RunProtocolValidation(ProtocolConfig{
		Dataset:   ds,
		Schedules: onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 5, 1),
		MaxWalls:  15,
		Seed:      5,
	})
	if err != nil {
		t.Fatalf("RunProtocolValidation: %v", err)
	}
	// The measured immediate-landing fraction and the analytic
	// AoD-activity measure the same phenomenon; they should agree loosely.
	diff := res.ImmediateFraction - res.AnalyticAoDActivity
	if diff < -0.25 || diff > 0.25 {
		t.Errorf("immediate fraction %.3f far from analytic AoD-activity %.3f",
			res.ImmediateFraction, res.AnalyticAoDActivity)
	}
}

// TestProtocolValidationMaxAvActivityPlacesReplicas pins the bugfix: protocol
// validation hands MaxAv(activity) the demand universe its Traits declare.
// Without it the policy covered the empty universe — no replica, no
// exchange, a zero delay bound, and no error.
func TestProtocolValidationMaxAvActivityPlacesReplicas(t *testing.T) {
	ds := testDataset(t)
	cfg := ProtocolConfig{Dataset: ds, Schedules: onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 5, 1), MaxWalls: 15, Seed: 5}
	run := func(p replica.Policy) *ProtocolResult {
		t.Helper()
		cfg.Policy = p
		res, err := RunProtocolValidation(cfg)
		if err != nil {
			t.Fatalf("RunProtocolValidation(%s): %v", p.Name(), err)
		}
		return res
	}
	plain := run(replica.MaxAv{})
	activity := run(replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity})
	if activity.Exchanges == 0 || activity.AnalyticWorstHours <= 0 {
		t.Errorf("MaxAv(activity) placed no replicas: %d exchanges, analytic worst delay %.2f h",
			activity.Exchanges, activity.AnalyticWorstHours)
	}
	// Covering the activity minutes is what the activity objective is for.
	if activity.AnalyticAoDActivity < plain.AnalyticAoDActivity {
		t.Errorf("MaxAv(activity) AoD-activity %.4f below plain MaxAv's %.4f",
			activity.AnalyticAoDActivity, plain.AnalyticAoDActivity)
	}
}

func TestProtocolValidationLossReducesDelivery(t *testing.T) {
	ds := testDataset(t)
	base := ProtocolConfig{Dataset: ds, Schedules: onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 9, 1), MaxWalls: 8, Days: 3, Seed: 9}
	clean, err := RunProtocolValidation(base)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	lossy := base
	lossy.LossRate = 0.9
	noisy, err := RunProtocolValidation(lossy)
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	if noisy.LostContacts == 0 {
		t.Error("loss injection did not fire")
	}
	if noisy.DeliveredFraction > clean.DeliveredFraction+1e-9 {
		t.Errorf("loss should not improve delivery: %.3f vs %.3f",
			noisy.DeliveredFraction, clean.DeliveredFraction)
	}
}

func TestProtocolValidationErrors(t *testing.T) {
	if _, err := RunProtocolValidation(ProtocolConfig{}); !errors.Is(err, ErrNoDataset) {
		t.Errorf("err = %v, want ErrNoDataset", err)
	}
	ds := testDataset(t)
	if _, err := RunProtocolValidation(ProtocolConfig{Dataset: ds}); err == nil {
		t.Error("a config without a schedule table was accepted")
	}
	for _, n := range []int{ds.NumUsers() - 1, ds.NumUsers() + 1} {
		if _, err := RunProtocolValidation(ProtocolConfig{Dataset: ds, Schedules: onlinetime.NewTable(n)}); err == nil {
			t.Errorf("a schedule table of %d users for %d was accepted", n, ds.NumUsers())
		}
	}
	full := onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 1, 1)
	if _, err := RunProtocolValidation(ProtocolConfig{Dataset: ds, Schedules: full, UserDegree: 499}); !errors.Is(err, ErrNoUsers) {
		t.Errorf("err = %v, want ErrNoUsers", err)
	}
}

func TestReplicaLoadBalance(t *testing.T) {
	ds := testDataset(t)
	rows, err := ReplicaLoadBalance(ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 1, 1), replica.ConRep, 3, 1)
	if err != nil {
		t.Fatalf("ReplicaLoadBalance: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	byName := map[string]LoadBalanceRow{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.MeanLoad <= 0 || r.MaxLoad < r.MeanLoad {
			t.Errorf("degenerate load row: %+v", r)
		}
		// Every policy leaves measurable imbalance on a heavy-tailed graph
		// (hubs appear in many candidate sets) — the fairness concern of
		// §II-B1 is real under all three policies.
		if r.CV <= 0 {
			t.Errorf("%s: cv = %v, want > 0", r.Policy, r.CV)
		}
	}
	// MaxAv stops adding replicas once coverage stops improving, so it
	// never hosts more total replicas than Random, which fills the budget
	// whenever connected candidates exist.
	if byName["MaxAv"].MeanLoad > byName["Random"].MeanLoad+1e-9 {
		t.Errorf("MaxAv mean load %.3f above Random %.3f",
			byName["MaxAv"].MeanLoad, byName["Random"].MeanLoad)
	}
}

func TestReplicaLoadBalanceValidation(t *testing.T) {
	if _, err := ReplicaLoadBalance(nil, nil, 0, 0, 1); !errors.Is(err, ErrNoDataset) {
		t.Errorf("err = %v, want ErrNoDataset", err)
	}
	if _, err := ReplicaLoadBalance(testDataset(t), nil, replica.ConRep, 3, 1); err == nil {
		t.Error("a nil schedule table was accepted")
	}
}

func TestProtocolMeasuredAoDTimeTracksAnalytic(t *testing.T) {
	ds := testDataset(t)
	res, err := RunProtocolValidation(ProtocolConfig{
		Dataset:   ds,
		Schedules: onlinetime.ComputeTable(onlinetime.FixedLength{Hours: 8}, ds, 13, 1),
		MaxWalls:  12,
		Days:      5,
		Seed:      13,
	})
	if err != nil {
		t.Fatalf("RunProtocolValidation: %v", err)
	}
	if res.MeasuredAoDTime <= 0 || res.MeasuredAoDTime > 1 {
		t.Fatalf("measured AoD-time = %v", res.MeasuredAoDTime)
	}
	// The scripted reads sample each friend's online minutes uniformly, so
	// the served fraction estimates the analytic AoD-time metric.
	diff := res.MeasuredAoDTime - res.AnalyticAoDTime
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("measured AoD-time %.3f far from analytic %.3f",
			res.MeasuredAoDTime, res.AnalyticAoDTime)
	}
}
