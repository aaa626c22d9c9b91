package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"dosn/internal/interval"
	"dosn/internal/mathrand"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/stats"
	"dosn/internal/trace"
)

// ProtocolConfig parameterizes the protocol-level validation experiment
// (X1/X2 in DESIGN.md): the placement the analytic sweep evaluates is
// followed post by post through its replica groups by the delivery model
// (metrics.Delivery), and the measured delays are compared against the
// analytic worst-case metric.
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
	// UserDegree picks the wall-owner population: the users with exactly
	// this many friends, as a sweep's (required; the paper uses 10).
	UserDegree int
	// MaxWalls caps the number of walls simulated (default 25).
	MaxWalls int
	// Days is the simulation horizon (default 7).
	Days int
	// LossRate is the share of contacts the delivery model drops.
	LossRate float64
	// DisableEagerPush turns off the round a member runs one minute after
	// it receives a post (protocol-design ablation A4); members then
	// exchange only at session starts.
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
	if c.MaxWalls <= 0 {
		c.MaxWalls = 25
	}
	if c.Days <= 0 {
		c.Days = 7
	}
}

// ProtocolResult compares analytic predictions with measurements.
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
	// actual and observed delays, counted from the post's first landing on
	// the group: the observed delay is the actual delay minus the receiver's
	// offline time (§II-C3 distinguishes the two).
	MeasuredPairHours float64
	ObservedPairHours float64
	// AnalyticAoDActivity is the sweep's availability-on-demand-activity,
	// averaged over walls: the share of a wall's activity minutes that fall
	// in its availability bitmap. A share of posts that landed while a group
	// member was online would be the same test pooled over posts, so the
	// result's analytic-vs-measured pairs are the delays and AoD-time.
	AnalyticAoDActivity float64
	// MeasuredAoDTime is the fraction of scripted reads (one per friend per
	// day, at a random minute of the friend's online time) that found a
	// replica online; AnalyticAoDTime is the corresponding sweep metric.
	MeasuredAoDTime float64
	AnalyticAoDTime float64
	// DeliveredFraction is the share of posts that reached the full group
	// within the horizon.
	DeliveredFraction float64
	// PostsTransferred counts the arrivals a contact carried (every
	// arrival but a creator's own on its group); LostContacts counts the
	// contacts loss dropped while they would have carried a post.
	PostsTransferred int
	LostContacts     int
}

// ProtocolFields names the ProtocolResult fields that Series plots, by their
// x value.
const ProtocolFields = "field (0=walls, 1=posts, 2=analytic worst h, 3=measured max h, " +
	"4=measured pair h, 5=observed pair h, 6=analytic AoD-activity, " +
	"7=measured AoD-time, 8=analytic AoD-time, 9=delivered, " +
	"10=posts transferred, 11=lost contacts)"

// Series plots every field of the result against its index (see
// ProtocolFields) as one series with the given label.
func (r *ProtocolResult) Series(label string) plot.Series {
	ys := []float64{
		float64(r.Walls), float64(r.Posts),
		r.AnalyticWorstHours, r.MeasuredMaxHours, r.MeasuredPairHours, r.ObservedPairHours,
		r.AnalyticAoDActivity, r.MeasuredAoDTime, r.AnalyticAoDTime,
		r.DeliveredFraction, float64(r.PostsTransferred), float64(r.LostContacts),
	}
	return plot.Categorical(label, ys...)
}

// protocolPost is one wall post of the protocol experiment.
type protocolPost struct {
	wall    int // index into the walls
	creator socialgraph.UserID
	at      int // absolute minute
}

// RunProtocolValidation places replicas for a sample of walls with the
// configured policy, follows every post the trace writes on them through
// the wall's group with the delivery model, and compares measured against
// analytic metrics.
func RunProtocolValidation(cfg ProtocolConfig) (*ProtocolResult, error) {
	schedules, err := tableRows(cfg.Dataset, cfg.Schedules)
	if err != nil {
		return nil, err
	}
	cfg.fill()
	ds := cfg.Dataset

	owners, err := analysisUsers(ds.Graph, cfg.UserDegree)
	if err != nil {
		return nil, fmt.Errorf("protocol validation: %w", err)
	}
	if len(owners) > cfg.MaxWalls {
		owners = owners[:cfg.MaxWalls]
	}

	res := &ProtocolResult{Walls: len(owners)}
	groups := make([][]socialgraph.UserID, len(owners))
	var posts []protocolPost
	reads, served := 0, 0
	readRNG := rand.New(rand.NewSource(int64(mathrand.Mix(uint64(cfg.Seed), 4))))
	analyticDelaySum := 0.0
	analyticAoDSum := 0.0
	analyticAoDCount := 0
	analyticAoDTimeSum := 0.0
	analyticAoDTimeCount := 0

	pl := replica.NewPlacer(ds, schedules, cfg.Mode, cfg.Budget, cfg.Policy)
	var actMinutes []int
	var gen workerRNG
	for i, u := range owners {
		replicas := cfg.Policy.Select(pl.Input(u), gen.seeded(int64(mathrand.Mix(uint64(cfg.Seed), 2, uint64(i)))))
		groups[i] = slices.Compact(slices.Sorted(slices.Values(append([]socialgraph.UserID{u}, replicas...))))

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
			posts = append(posts, protocolPost{wall: i, creator: ds.CreatorAt(int(k)), at: day*interval.DayMinutes + actMinutes[j]})
		}
		// Read workload: each friend accesses the profile once per day at a
		// random minute of his own online time — by construction these
		// reads sample the AoD-time demand set. A read is served when a
		// group member is online at its minute.
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
				reads++
				if avail.Contains(m) {
					served++
				}
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
	if reads > 0 {
		res.MeasuredAoDTime = float64(served) / float64(reads)
	}
	res.Posts = len(posts)
	if len(posts) == 0 {
		return res, nil
	}

	// The posts in creation order (ties in the order above), each followed
	// alone through its wall's group.
	slices.SortStableFunc(posts, func(a, b protocolPost) int { return cmp.Compare(a.at, b.at) })
	d := metrics.Delivery{
		Bitmaps: schedules,
		Horizon: cfg.Days * interval.DayMinutes,
		Eager:   !cfg.DisableEagerPush,
		Loss:    metrics.Loss{Rate: cfg.LossRate, Seed: int64(mathrand.Mix(uint64(cfg.Seed), 3))},
	}
	var pairActual, pairObserved, postMax stats.Welford
	delivered := 0
	var arr []int
	for _, p := range posts {
		group := groups[p.wall]
		arr = slices.Grow(arr[:0], len(group))[:len(group)]
		res.LostContacts += d.Arrivals(group, p.creator, p.at, arr)
		first := -1
		for _, a := range arr {
			if a >= 0 && (first < 0 || a < first) {
				first = a
			}
		}
		if first < 0 {
			continue
		}
		maxActual, complete := 0.0, true
		for i, a := range arr {
			if a < 0 {
				complete = false
				continue
			}
			if group[i] != p.creator {
				res.PostsTransferred++
			}
			actual := float64(a-first) / 60
			pairActual.Add(actual)
			pairObserved.Add(float64(onlineMinutesBetween(&schedules[group[i]], first, a)) / 60)
			maxActual = max(maxActual, actual)
		}
		if complete {
			delivered++
			postMax.Add(maxActual)
		}
	}
	res.MeasuredMaxHours = postMax.Mean()
	res.MeasuredPairHours = pairActual.Mean()
	res.ObservedPairHours = pairObserved.Mean()
	res.DeliveredFraction = float64(delivered) / float64(len(posts))
	return res, nil
}

// onlineMinutesBetween counts the minutes of the absolute span [from, to)
// a schedule is online.
func onlineMinutesBetween(b *interval.Bitmap, from, to int) int {
	days, rem := (to-from)/interval.DayMinutes, (to-from)%interval.DayMinutes
	return days*b.Minutes() + b.OnesInRange(from, rem)
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
// policy over the table and reports how evenly hosting duty spreads. Unlike
// the other experiments it scores no analysis population: a host's load
// counts the replicas of every owner whose candidate set it is in, so every
// owner's placement is made.
func ReplicaLoadBalance(ds *trace.Dataset, table *onlinetime.Table, mode replica.Mode, budget int, seed int64) ([]LoadBalanceRow, error) {
	schedules, err := tableRows(ds, table)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	rows := make([]LoadBalanceRow, 0, 3)
	for pi, p := range replica.DefaultPolicies() {
		load, err := placementLoad(ds, schedules, p, mode, budget, workers,
			func(u int) int64 { return int64(mathrand.Mix(uint64(seed), uint64(pi), uint64(u))) })
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.Name(), err)
		}
		mean, maxLoad, cv := metrics.LoadImbalance(load)
		rows = append(rows, LoadBalanceRow{Policy: p.Name(), MeanLoad: mean, MaxLoad: maxLoad, CV: cv})
	}
	return rows, nil
}
