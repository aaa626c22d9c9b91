package core

import (
	"fmt"
	"math/rand"
	"runtime"

	"dosn/internal/desim"
	"dosn/internal/interval"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/osn"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// ProtocolConfig parameterizes the protocol-level validation experiment
// (X1/X2 in DESIGN.md): the same placement the analytic sweep evaluates is
// executed in the discrete-event OSN runtime, and measured delays are
// compared against the analytic worst-case metric.
type ProtocolConfig struct {
	// Dataset supplies the graph and activities.
	Dataset *trace.Dataset
	// Schedules is the online-time table built over Dataset (required).
	Schedules *onlinetime.Table
	// Policy places the replicas (default MaxAv).
	Policy replica.Policy
	// Mode selects ConRep/UnconRep (default ConRep).
	Mode replica.Mode
	// Budget is the replication degree (default 3).
	Budget int
	// UserDegree picks the wall-owner population (default 10, as in the
	// paper's analysis population).
	UserDegree int
	// MaxWalls caps the number of walls simulated (default 25).
	MaxWalls int
	// Days is the simulation horizon (default 7).
	Days int
	// LossRate injects contact failures.
	LossRate float64
	// DisableEagerPush turns off in-overlap propagation rounds in the
	// runtime (protocol-design ablation A4); replicas then exchange only at
	// session starts.
	DisableEagerPush bool
	// Seed drives placement, reads and loss.
	Seed int64
}

func (c *ProtocolConfig) fill() {
	if c.Policy == nil {
		c.Policy = replica.MaxAv{}
	}
	if c.Mode == 0 {
		c.Mode = replica.ConRep
	}
	if c.Budget <= 0 {
		c.Budget = 3
	}
	if c.UserDegree <= 0 {
		c.UserDegree = 10
	}
	if c.MaxWalls <= 0 {
		c.MaxWalls = 25
	}
	if c.Days <= 0 {
		c.Days = 7
	}
}

// ProtocolResult compares analytic predictions with runtime measurements.
type ProtocolResult struct {
	Walls int
	Posts int
	// AnalyticWorstHours is the mean (over walls) of the analytic
	// update-propagation-delay metric — a worst-case bound.
	AnalyticWorstHours float64
	// MeasuredMaxHours is the mean (over fully delivered posts) of the
	// maximum delay over the replica group. Must sit at or below the bound.
	MeasuredMaxHours float64
	// MeasuredPairHours / ObservedPairHours are the mean per-(post,replica)
	// actual and observed delays (§II-C3 distinguishes the two).
	MeasuredPairHours float64
	ObservedPairHours float64
	// ImmediateFraction is the measured availability-on-demand-activity
	// analogue; AnalyticAoDActivity is the metric the sweep predicts.
	ImmediateFraction   float64
	AnalyticAoDActivity float64
	// MeasuredAoDTime is the fraction of scripted reads (one per friend per
	// day, at a random minute of the friend's online time) that found a
	// replica online; AnalyticAoDTime is the corresponding sweep metric.
	MeasuredAoDTime float64
	AnalyticAoDTime float64
	// DeliveredFraction is the share of posts that reached the full group
	// within the horizon.
	DeliveredFraction float64
	// Exchanges and PostsTransferred quantify protocol traffic.
	Exchanges        int
	PostsTransferred int
	LostContacts     int
}

// ProtocolFields names the ProtocolResult fields that Series plots, by their
// x value.
const ProtocolFields = "field (0=walls, 1=posts, 2=analytic worst h, 3=measured max h, " +
	"4=measured pair h, 5=observed pair h, 6=immediate, 7=analytic AoD-activity, " +
	"8=measured AoD-time, 9=analytic AoD-time, 10=delivered, 11=exchanges, " +
	"12=posts transferred, 13=lost contacts)"

// Series plots every field of the result against its index (see
// ProtocolFields) as one series with the given label.
func (r *ProtocolResult) Series(label string) plot.Series {
	ys := []float64{
		float64(r.Walls), float64(r.Posts),
		r.AnalyticWorstHours, r.MeasuredMaxHours, r.MeasuredPairHours, r.ObservedPairHours,
		r.ImmediateFraction, r.AnalyticAoDActivity, r.MeasuredAoDTime, r.AnalyticAoDTime,
		r.DeliveredFraction,
		float64(r.Exchanges), float64(r.PostsTransferred), float64(r.LostContacts),
	}
	return plot.Categorical(label, ys...)
}

// RunProtocolValidation builds an OSN runtime for a sample of walls placed
// by the configured policy and compares measured against analytic metrics.
func RunProtocolValidation(cfg ProtocolConfig) (*ProtocolResult, error) {
	schedules, err := tableRows(cfg.Dataset, cfg.Schedules)
	if err != nil {
		return nil, err
	}
	cfg.fill()
	ds := cfg.Dataset

	owners := ds.Graph.UsersWithDegree(cfg.UserDegree)
	if len(owners) == 0 {
		return nil, fmt.Errorf("protocol validation: %w: degree %d", ErrNoUsers, cfg.UserDegree)
	}
	if len(owners) > cfg.MaxWalls {
		owners = owners[:cfg.MaxWalls]
	}

	res := &ProtocolResult{Walls: len(owners)}
	assignments := make(map[osn.NodeID][]osn.NodeID, len(owners))
	var posts []osn.PostEvent
	var reads []osn.ReadEvent
	readRNG := rand.New(rand.NewSource(mix(cfg.Seed, 4)))
	analyticDelaySum := 0.0
	analyticAoDSum := 0.0
	analyticAoDCount := 0
	analyticAoDTimeSum := 0.0
	analyticAoDTimeCount := 0

	pl := replica.NewPlacer(ds, schedules, cfg.Mode, cfg.Budget, cfg.Policy)
	var actMinutes []int
	var gen workerRNG
	for i, u := range owners {
		replicas := cfg.Policy.Select(pl.Input(u), gen.seeded(mix(cfg.Seed, 2, int64(i))))
		assignments[u] = replicas

		analyticDelaySum += metrics.UpdatePropagationDelay(u, replicas, schedules).Hours
		avail := metrics.AvailabilitySet(u, replicas, schedules)
		received := ds.ReceivedIdx(u)
		actMinutes = actMinutes[:0]
		for _, k := range received {
			actMinutes = append(actMinutes, ds.MinuteOfDayAt(int(k)))
		}
		if v, ok := metrics.AvailabilityOnDemandMinutes(&avail, actMinutes); ok {
			analyticAoDSum += v
			analyticAoDCount++
		}
		for j, k := range received {
			// Whole days since the epoch (truncating toward zero), folded
			// onto the simulated horizon.
			day := int((ds.UnixAt(int(k))-trace.Epoch.Unix())/(24*60*60)) % cfg.Days
			if day < 0 {
				day += cfg.Days
			}
			posts = append(posts, osn.PostEvent{
				At:      desim.Time(day)*interval.DayMinutes + desim.Time(actMinutes[j]),
				Creator: ds.CreatorAt(int(k)),
				Wall:    u,
				Body:    "activity",
			})
		}
		// Read workload: each friend accesses the profile once per day at a
		// random minute of his own online time — by construction these
		// reads sample the AoD-time demand set.
		friends := ds.Graph.Neighbors(u)
		if v, ok := metrics.AvailabilityOnDemandTime(u, replicas, friends, schedules); ok {
			analyticAoDTimeSum += v
			analyticAoDTimeCount++
		}
		for _, f := range friends {
			// The friend's run list: the draw picks the k-th online minute.
			ot := schedules[f].Set()
			if ot.IsEmpty() {
				continue
			}
			for day := 0; day < cfg.Days; day++ {
				m, ok := ot.RandomMinute(readRNG)
				if !ok {
					continue
				}
				reads = append(reads, osn.ReadEvent{
					At:     desim.Time(day)*interval.DayMinutes + desim.Time(m),
					Reader: f,
					Wall:   u,
				})
			}
		}
	}
	res.AnalyticWorstHours = analyticDelaySum / float64(len(owners))
	if analyticAoDCount > 0 {
		res.AnalyticAoDActivity = analyticAoDSum / float64(analyticAoDCount)
	}
	if analyticAoDTimeCount > 0 {
		res.AnalyticAoDTime = analyticAoDTimeSum / float64(analyticAoDTimeCount)
	}

	net, err := osn.NewNetwork(osn.Config{
		Schedules:        schedules,
		Assignments:      assignments,
		Days:             cfg.Days,
		Posts:            posts,
		Reads:            reads,
		LossRate:         cfg.LossRate,
		DisableEagerPush: cfg.DisableEagerPush,
		Seed:             mix(cfg.Seed, 3),
	})
	if err != nil {
		return nil, fmt.Errorf("protocol validation: %w", err)
	}
	run := net.Run()

	res.Posts = run.Posts
	res.MeasuredMaxHours = run.PostMaxActualHours.Mean()
	res.MeasuredPairHours = run.PairActualHours.Mean()
	res.ObservedPairHours = run.PairObservedHours.Mean()
	res.ImmediateFraction = run.ImmediateFraction
	if run.Posts > 0 {
		res.DeliveredFraction = float64(run.DeliveredAll) / float64(run.Posts)
	}
	res.Exchanges = run.Exchanges
	res.PostsTransferred = run.PostsTransferred
	res.LostContacts = run.LostContacts
	if run.ReadsTotal > 0 {
		res.MeasuredAoDTime = float64(run.ReadsServed) / float64(run.ReadsTotal)
	}
	return res, nil
}

// LoadBalanceRow summarizes replica-host load for one policy (experiment
// X4: the fairness requirement of §II-B1).
type LoadBalanceRow struct {
	Policy string
	// MeanLoad and MaxLoad are per-host replica counts over all users.
	MeanLoad float64
	MaxLoad  float64
	// CV is the coefficient of variation: 0 is perfectly fair.
	CV float64
}

// ReplicaLoadBalance places replicas for every user in the dataset with each
// policy over the table and reports how evenly hosting duty spreads.
func ReplicaLoadBalance(ds *trace.Dataset, table *onlinetime.Table, mode replica.Mode, budget int, seed int64) ([]LoadBalanceRow, error) {
	schedules, err := tableRows(ds, table)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	rows := make([]LoadBalanceRow, 0, 3)
	for pi, p := range replica.DefaultPolicies() {
		load, err := placementLoad(ds, schedules, p, mode, budget, workers,
			func(u int) int64 { return mix(seed, int64(pi), int64(u)) })
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.Name(), err)
		}
		mean, maxLoad, cv := metrics.LoadImbalance(load)
		rows = append(rows, LoadBalanceRow{Policy: p.Name(), MeanLoad: mean, MaxLoad: maxLoad, CV: cv})
	}
	return rows, nil
}
