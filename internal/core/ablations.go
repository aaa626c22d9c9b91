package core

import (
	"fmt"
	"math/rand"
	"time"

	"dosn/internal/mathrand"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/stats"
	"dosn/internal/trace"
)

// HistorySplitResult reports ablation A2: how well MostActive trained on
// past interactions predicts future activity coverage.
type HistorySplitResult struct {
	Users int
	// HistoricalAoDActivity is the AoD-activity on the evaluation window
	// when replicas are ranked by interactions from the training window —
	// the deployable configuration the paper argues for in §V-C
	// ("activities of friends ... can be estimated locally based on
	// historical data").
	HistoricalAoDActivity float64
	// OracleAoDActivity ranks on the evaluation window itself (future
	// knowledge): the headroom above Historical is the cost of prediction.
	OracleAoDActivity float64
	// RandomAoDActivity is the no-knowledge floor.
	RandomAoDActivity float64
}

// HistorySplit trains MostActive on the first `trainFraction` of the trace
// and evaluates availability-on-demand-activity on the rest, over the table,
// for the users with exactly userDegree friends.
func HistorySplit(ds *trace.Dataset, table *onlinetime.Table, userDegree, budget int, trainFraction float64, seed int64) (*HistorySplitResult, error) {
	schedules, err := tableRows(ds, table)
	if err != nil {
		return nil, err
	}
	if trainFraction <= 0 || trainFraction >= 1 {
		return nil, fmt.Errorf("core: trainFraction %v outside (0,1)", trainFraction)
	}
	from, to, ok := ds.TimeBounds()
	if !ok {
		return nil, fmt.Errorf("core: empty trace: %w", ErrNoUsers)
	}
	split := from.Add(time.Duration(float64(to.Sub(from)) * trainFraction))

	users, err := analysisUsers(ds.Graph, userDegree)
	if err != nil {
		return nil, err
	}

	// No policies: the Placer supplies the candidates, each evaluation its
	// own windowed interaction counts.
	pl := replica.NewPlacer(ds, schedules, replica.ConRep, budget)
	var hist, oracle, random stats.Welford
	var gen workerRNG
	for i, u := range users {
		evalIdx := ds.ReceivedIdxBetween(u, split, to)
		if len(evalIdx) == 0 {
			continue
		}
		evalMinutes := make([]int, len(evalIdx))
		for j, k := range evalIdx {
			evalMinutes[j] = ds.MinuteOfDayAt(int(k))
		}
		evaluate := func(counts []int, p replica.Policy, w *stats.Welford, salt int64) {
			in := pl.Input(u)
			in.CandidateCounts = counts // the window's interactions, not the whole trace's
			replicas := p.Select(in, gen.seeded(int64(mathrand.Mix(uint64(seed), uint64(salt), uint64(i)))))
			avail := metrics.AvailabilitySet(u, replicas, schedules)
			if v, ok := metrics.AvailabilityOnDemandMinutes(&avail, evalMinutes); ok {
				w.Add(v)
			}
		}
		evaluate(ds.InteractionCountsBetween(u, from, split), replica.MostActive{}, &hist, 1)
		evaluate(ds.InteractionCountsBetween(u, split, to), replica.MostActive{}, &oracle, 2)
		evaluate(nil, replica.Random{}, &random, 3)
	}
	return &HistorySplitResult{
		Users:                 hist.N(),
		HistoricalAoDActivity: hist.Mean(),
		OracleAoDActivity:     oracle.Mean(),
		RandomAoDActivity:     random.Mean(),
	}, nil
}

// ChurnRow reports availability after a number of replica failures for one
// policy (ablation A3: robustness of the placement to replica churn, the
// flip side of the paper's privacy argument for minimizing the degree).
type ChurnRow struct {
	Policy string
	// Availability[j] is the mean availability after j randomly chosen
	// replicas fail, j = 0..budget.
	Availability []float64
}

// Churn places replicas with each policy at the given budget over the table
// for the users with exactly userDegree friends and measures availability as
// replicas are removed uniformly at random (averaged over those users and
// `repeats` failure draws).
func Churn(ds *trace.Dataset, table *onlinetime.Table, userDegree, budget, repeats int, seed int64) ([]ChurnRow, error) {
	schedules, err := tableRows(ds, table)
	if err != nil {
		return nil, err
	}
	users, err := analysisUsers(ds.Graph, userDegree)
	if err != nil {
		return nil, err
	}

	policies := replica.DefaultPolicies()
	pl := replica.NewPlacer(ds, schedules, replica.ConRep, budget, policies...)
	rows := make([]ChurnRow, 0, len(policies))
	var gen workerRNG
	for pi, p := range policies {
		acc := make([]stats.Welford, budget+1)
		for ui, u := range users {
			// One stream per (policy, user): the selection draws from it
			// first, the failure draws continue it.
			rng := gen.seeded(int64(mathrand.Mix(uint64(seed), uint64(pi), uint64(ui))))
			replicas := p.Select(pl.Input(u), rng)
			for j := 0; j <= budget; j++ {
				if j > len(replicas) {
					break
				}
				for r := 0; r < repeats; r++ {
					alive := failRandom(replicas, j, rng)
					acc[j].Add(metrics.Availability(u, alive, schedules))
				}
			}
		}
		row := ChurnRow{Policy: p.Name(), Availability: make([]float64, budget+1)}
		for j := range acc {
			row.Availability[j] = acc[j].Mean()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// failRandom returns a copy of replicas with j random entries removed.
func failRandom(replicas []socialgraph.UserID, j int, rng *rand.Rand) []socialgraph.UserID {
	if j <= 0 {
		return replicas
	}
	if j >= len(replicas) {
		return nil
	}
	perm := rng.Perm(len(replicas))
	alive := make([]socialgraph.UserID, 0, len(replicas)-j)
	for _, idx := range perm[j:] {
		alive = append(alive, replicas[idx])
	}
	return alive
}
