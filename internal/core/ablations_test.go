package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// demandProbe records the demand universe the sweep hands a policy.
type demandProbe struct {
	usesDemand bool
	mu         *sync.Mutex
	got        map[socialgraph.UserID]*interval.Bitmap
}

func (p demandProbe) Name() string           { return "demandProbe" }
func (p demandProbe) Traits() replica.Traits { return replica.Traits{UsesDemand: p.usesDemand} }
func (p demandProbe) Select(in replica.Input, _ *rand.Rand) []socialgraph.UserID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.got[in.Owner] = nil
	if in.Demand != nil {
		cp := *in.Demand // the engine's view is only valid during Select
		p.got[in.Owner] = &cp
	}
	return nil
}

// TestActivityMinutes pins the set-cover universe of MaxAv's
// on-demand-activity objective (§III-A) as the sweep supplies it: exactly
// the distinct minutes-of-day of the activity received on the owner's
// profile, and only for policies whose traits ask for it.
func TestActivityMinutes(t *testing.T) {
	ds := testDataset(t)
	run := func(usesDemand bool) map[socialgraph.UserID]*interval.Bitmap {
		t.Helper()
		p := demandProbe{usesDemand: usesDemand, mu: new(sync.Mutex), got: map[socialgraph.UserID]*interval.Bitmap{}}
		if _, err := Run(Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Seed: 1, Policies: []replica.Policy{p}}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(p.got) == 0 {
			t.Fatal("probe saw no users")
		}
		return p.got
	}
	for u, demand := range run(true) {
		if demand == nil {
			t.Fatalf("user %d: policy declaring UsesDemand got no demand universe", u)
		}
		distinct := map[int]bool{}
		for _, k := range ds.ReceivedIdx(u) {
			m := ds.MinuteOfDayAt(int(k))
			distinct[m] = true
			if !demand.Contains(m) {
				t.Errorf("user %d: activity minute %d missing from demand %s", u, m, demand)
			}
		}
		if demand.Minutes() != len(distinct) {
			t.Errorf("user %d: demand has %d minutes, want %d distinct activity minutes", u, demand.Minutes(), len(distinct))
		}
	}
	for u, demand := range run(false) {
		if demand != nil {
			t.Errorf("user %d: policy not declaring UsesDemand was handed a demand universe", u)
		}
	}
}

// TestObjectiveAblation: ablation A1, MaxAv, MaxAv(activity) and Random
// over degrees 0..5.
func TestObjectiveAblation(t *testing.T) {
	res, err := Run(Config{
		Dataset: testDataset(t),
		Model:   onlinetime.Sporadic{},
		Mode:    replica.ConRep,
		Policies: []replica.Policy{
			replica.MaxAv{}, replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity}, replica.Random{},
		},
		MaxDegree:  5,
		UserDegree: 10,
		Repeats:    2,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	avail, act := res.MetricSeries(MetricAvailability), res.MetricSeries(MetricAoDActivity)
	if len(act) != 3 || act[1].Label != "MaxAv(activity)" || len(act[0].Y) != 6 {
		t.Fatalf("series = %+v", act)
	}
	maxAv, maxAvAct, rnd := 0, 1, 2
	// The activity-targeted objective must beat Random on AoD-activity at
	// mid budgets and must not beat plain MaxAv on raw availability (it
	// spends budget only where activity happens).
	deg := 3
	if actOnAct, rndOnAct := act[maxAvAct].Y[deg], act[rnd].Y[deg]; actOnAct+1e-9 < rndOnAct {
		t.Errorf("MaxAv(activity) AoD-activity %.3f below Random %.3f", actOnAct, rndOnAct)
	}
	if availOnAvail, actOnAvail := avail[maxAv].Y[deg], avail[maxAvAct].Y[deg]; actOnAvail > availOnAvail+1e-9 {
		t.Errorf("MaxAv(activity) availability %.3f should not exceed MaxAv %.3f",
			actOnAvail, availOnAvail)
	}
}

func TestHistorySplit(t *testing.T) {
	ds := testDataset(t)
	res, err := HistorySplit(ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 5, 1), 3, 0.5, 5)
	if err != nil {
		t.Fatalf("HistorySplit: %v", err)
	}
	if res.Users == 0 {
		t.Fatal("no users evaluated")
	}
	for name, v := range map[string]float64{
		"historical": res.HistoricalAoDActivity,
		"oracle":     res.OracleAoDActivity,
		"random":     res.RandomAoDActivity,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s AoD-activity = %v outside [0,1]", name, v)
		}
	}
	// The oracle has future knowledge: it cannot lose to the historical
	// ranking by a wide margin (sampling noise allows small inversions).
	if res.HistoricalAoDActivity > res.OracleAoDActivity+0.1 {
		t.Errorf("historical %.3f implausibly above oracle %.3f",
			res.HistoricalAoDActivity, res.OracleAoDActivity)
	}
}

func TestHistorySplitValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := HistorySplit(nil, nil, 3, 0.5, 1); !errors.Is(err, ErrNoDataset) {
		t.Errorf("err = %v, want ErrNoDataset", err)
	}
	table := onlinetime.NewTable(ds.NumUsers())
	for _, f := range []float64{0, 1} {
		if _, err := HistorySplit(ds, table, 3, f, 1); err == nil || !strings.Contains(err.Error(), "trainFraction") {
			t.Errorf("trainFraction %v: err = %v, want the trainFraction error", f, err)
		}
	}
	if _, err := HistorySplit(ds, nil, 3, 0.5, 1); err == nil {
		t.Error("a nil schedule table must fail")
	}
}

func TestChurnMonotoneDegradation(t *testing.T) {
	ds := testDataset(t)
	rows, err := Churn(ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, 2, 1), 5, 3, 2)
	if err != nil {
		t.Fatalf("Churn: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Availability) != 6 {
			t.Fatalf("%s availability points = %d", row.Policy, len(row.Availability))
		}
		for j := 1; j < len(row.Availability); j++ {
			if row.Availability[j] > row.Availability[j-1]+1e-9 {
				t.Errorf("%s: availability rose from %.3f to %.3f at %d failures",
					row.Policy, row.Availability[j-1], row.Availability[j], j)
			}
		}
		// All replicas failed → only the owner remains; availability must
		// stay positive (the owner's own sessions).
		last := row.Availability[len(row.Availability)-1]
		if last <= 0 {
			t.Errorf("%s: availability after total churn = %v", row.Policy, last)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Churn(nil, nil, 0, 0, 1); !errors.Is(err, ErrNoDataset) {
		t.Errorf("err = %v, want ErrNoDataset", err)
	}
	ds := testDataset(t)
	for _, n := range []int{ds.NumUsers() - 1, ds.NumUsers() + 1} {
		if _, err := Churn(ds, onlinetime.NewTable(n), 5, 1, 1); err == nil {
			t.Errorf("a schedule table of %d users for %d was accepted", n, ds.NumUsers())
		}
	}
}
