package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
)

// lastAt runs one ConRep Sporadic sweep and returns each policy's value of
// metric m at its largest degree: one x position of Fig. 8 or Fig. 9. It
// returns Run's error, ErrNoUsers when no user has the user degree.
func lastAt(t *testing.T, session time.Duration, maxDegree, userDegree int, m Metric) ([]float64, error) {
	t.Helper()
	res, err := Run(Config{
		Dataset:    testDataset(t),
		Model:      onlinetime.Sporadic{SessionLength: session},
		Mode:       replica.ConRep,
		MaxDegree:  maxDegree,
		UserDegree: userDegree,
		Repeats:    1,
		Seed:       5,
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res.Policies))
	for pi := range res.Policies {
		out[pi] = res.Last(pi, m)
	}
	return out, nil
}

// mustLastAt is lastAt failing the test on any error.
func mustLastAt(t *testing.T, session time.Duration, maxDegree, userDegree int, m Metric) []float64 {
	t.Helper()
	out, err := lastAt(t, session, maxDegree, userDegree, m)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// TestSessionLengthFigureShape: Fig. 8a's effect in the engine. At degree 3,
// availability rises from 100 s sessions to 100 000 s ones for every
// policy, and at 100 000 s (≈28 h) sessions cover the whole day.
func TestSessionLengthFigureShape(t *testing.T) {
	short := mustLastAt(t, 100*time.Second, 3, 10, MetricAvailability)
	long := mustLastAt(t, 100000*time.Second, 3, 10, MetricAvailability)
	for pi := range short {
		if long[pi] <= short[pi] {
			t.Errorf("policy %d: availability should grow with session length (%.3f → %.3f)", pi, short[pi], long[pi])
		}
		if long[pi] < 0.95 {
			t.Errorf("policy %d: availability at 100000s = %.3f, want ≈1", pi, long[pi])
		}
	}
}

// TestSessionLengthDelayFalls: Fig. 8d's effect, the delay at degree 3 falls
// as sessions lengthen.
func TestSessionLengthDelayFalls(t *testing.T) {
	short := mustLastAt(t, 100*time.Second, 3, 10, MetricDelayHours)
	long := mustLastAt(t, 100000*time.Second, 3, 10, MetricDelayHours)
	for pi := range short {
		if long[pi] >= short[pi] {
			t.Errorf("policy %d: delay should fall with session length (%.2f → %.2f)", pi, short[pi], long[pi])
		}
	}
}

// TestUserDegreeFigureShape: Fig. 9a's effect. With every friend allowed as
// a replica (replication degree = user degree), the paper's three policies
// reach the same availability at every user degree 1..10 that has users,
// and availability grows from the lowest such degree to the highest.
func TestUserDegreeFigureShape(t *testing.T) {
	var degrees []int
	var points [][]float64
	for d := 1; d <= 10; d++ {
		at, err := lastAt(t, 0, d, d, MetricAvailability)
		switch {
		case errors.Is(err, ErrNoUsers):
			continue // no user has this degree
		case err != nil:
			t.Fatalf("degree %d: %v", d, err)
		}
		if len(at) != 3 {
			t.Fatalf("degree %d: %d policies, want the paper's 3", d, len(at))
		}
		for pi := 1; pi < len(at); pi++ {
			if diff := at[0] - at[pi]; diff > 0.02 || diff < -0.02 {
				t.Errorf("policies differ at degree %d: %.3f vs %.3f (an all-friends budget should equalize)", d, at[0], at[pi])
			}
		}
		degrees, points = append(degrees, d), append(points, at)
	}
	if len(points) < 2 {
		t.Fatalf("only user degrees %v have users", degrees)
	}
	low, high := points[0], points[len(points)-1]
	for pi := range low {
		if high[pi] <= low[pi] {
			t.Errorf("policy %d: availability should grow with user degree (%.3f at %d → %.3f at %d)",
				pi, low[pi], degrees[0], high[pi], degrees[len(degrees)-1])
		}
	}
}

// TestRunPanelRendersAndWrites: a sweep's MetricSeries is a degree panel
// that renders as a chart and writes as a .dat file.
func TestRunPanelRendersAndWrites(t *testing.T) {
	res := runSweep(t, testDataset(t), onlinetime.Sporadic{}, replica.ConRep)
	fig := plot.Figure{ID: "fig3a", XLabel: "replication degree", YLabel: MetricAvailability.String(), Series: res.MetricSeries(MetricAvailability)}
	var dat, txt bytes.Buffer
	if err := fig.WriteDat(&dat); err != nil {
		t.Fatalf("WriteDat: %v", err)
	}
	if err := fig.Render(&txt, 60, 12); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(dat.String(), "MaxAv") || !strings.Contains(txt.String(), "MaxAv") {
		t.Error("figure output incomplete")
	}
}
