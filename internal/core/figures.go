package core

import (
	"fmt"
	"slices"
	"time"

	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// Options tunes how figures are regenerated. The zero value is filled with
// the paper's choices (degree-10 users, replication degree 0..10) and a
// default repeat count.
type Options struct {
	// MaxDegree is the replication-degree sweep bound (paper: 10).
	MaxDegree int
	// UserDegree selects the analysis population (paper: degree 10).
	UserDegree int
	// Repeats averages repeated randomized runs (paper: 5).
	Repeats int
	// Seed drives all randomness.
	Seed int64
}

func (o Options) fill() Options {
	if o.MaxDegree <= 0 {
		o.MaxDegree = 10
	}
	if o.UserDegree <= 0 {
		o.UserDegree = 10
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// MetricSeries extracts one plottable series per policy for the metric.
func (r *Result) MetricSeries(m Metric) []plot.Series {
	out := make([]plot.Series, len(r.Policies))
	for pi, name := range r.Policies {
		xs := make([]float64, len(r.Degrees))
		ys := make([]float64, len(r.Degrees))
		for di, d := range r.Degrees {
			xs[di] = float64(d)
			ys[di] = r.Value(pi, di, m)
		}
		out[pi] = plot.Series{Label: name, X: xs, Y: ys}
	}
	return out
}

// Last returns the metric value at the largest swept degree.
func (r *Result) Last(policy int, m Metric) float64 {
	return r.Value(policy, len(r.Degrees)-1, m)
}

// DegreeDistributionFigure reproduces Fig. 2: the number of users at each
// user degree for every given dataset.
func DegreeDistributionFigure(datasets ...*trace.Dataset) plot.Figure {
	fig := plot.Figure{
		ID:     "fig2",
		Title:  "User degree distribution of the datasets",
		XLabel: "user degree",
		YLabel: "number of users",
	}
	for _, ds := range datasets {
		hist := ds.Graph.DegreeHistogram()
		var xs, ys []float64
		for d, c := range hist {
			if c > 0 {
				xs = append(xs, float64(d))
				ys = append(ys, float64(c))
			}
		}
		fig.Series = append(fig.Series, plot.Series{Label: datasetTitle(ds.Name), X: xs, Y: ys})
	}
	return fig
}

func datasetTitle(name string) string {
	switch name {
	case "facebook":
		return "Facebook"
	case "twitter":
		return "Twitter"
	default:
		return name
	}
}

// sweep is one Run configuration a figure reads; the suite's Options supply
// the repeat count and the seed. Every field is comparable, so a map keyed
// by sweep runs each distinct configuration once.
type sweep struct {
	dataset    string // "facebook" or "twitter"
	model      onlinetime.Model
	mode       replica.Mode
	maxDegree  int
	userDegree int
}

// figure is one figure of the paper's evaluation, a view of its sweeps. A
// degree panel (xs nil) reads one sweep and plots the metric against the
// replication degree. Otherwise sweep i is plotted at xs[i] by its value at
// its largest replication degree.
type figure struct {
	id, title, xLabel string
	metric            Metric
	logX              bool
	sweeps            []sweep
	xs                []float64
}

// render draws the figure from the results of its sweeps.
func (f figure) render(results map[sweep]*Result) plot.Figure {
	fig := plot.Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.metric.String(), LogX: f.logX}
	if f.xs == nil {
		fig.Series = results[f.sweeps[0]].MetricSeries(f.metric)
		return fig
	}
	for pi, name := range results[f.sweeps[0]].Policies {
		ys := make([]float64, len(f.sweeps))
		for i, sw := range f.sweeps {
			ys[i] = results[sw].Last(pi, f.metric)
		}
		fig.Series = append(fig.Series, plot.Series{Label: name, X: slices.Clone(f.xs), Y: ys})
	}
	return fig
}

// sessionSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var sessionSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// figures returns every sweep figure of the paper in FigureIDs order (Fig. 2,
// which plots the datasets themselves, is not one).
func (s *Suite) figures() []figure {
	o := s.Opts.fill()
	var out []figure
	// Figs. 3, 5, 6, 7, 10 and 11 show panels (a)–(d) for the four models.
	models := []onlinetime.Model{
		onlinetime.Sporadic{},
		onlinetime.RandomLength{},
		onlinetime.FixedLength{Hours: 2},
		onlinetime.FixedLength{Hours: 8},
	}
	degreePanels := func(fig, dataset string, mode replica.Mode, metric Metric, what string, models ...onlinetime.Model) {
		for i, m := range models {
			out = append(out, figure{
				id:     fig + "abcd"[i:i+1],
				title:  fmt.Sprintf("%s-%s: %s (%s)", datasetTitle(dataset), mode, what, m.Name()),
				xLabel: "replication degree",
				metric: metric,
				sweeps: []sweep{{dataset, m, mode, o.MaxDegree, o.UserDegree}},
			})
		}
	}
	degreePanels("fig3", "facebook", replica.ConRep, MetricAvailability, "Availability", models...)
	// Fig 4 shows only the FixedLength panels, for UnconRep.
	degreePanels("fig4", "facebook", replica.UnconRep, MetricAvailability, "Availability", models[2:]...)
	degreePanels("fig5", "facebook", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time", models...)
	degreePanels("fig6", "facebook", replica.ConRep, MetricAoDActivity, "Availability-on-Demand-Activity", models...)
	degreePanels("fig7", "facebook", replica.ConRep, MetricDelayHours, "Update Propagation Delay", models...)
	degreePanels("fig10", "twitter", replica.ConRep, MetricAvailability, "Availability", models...)
	degreePanels("fig11", "twitter", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time", models...)

	// Fig. 8: each panel plots one metric against the Sporadic session
	// length, at a fixed replication degree of 3.
	const fixedDegree = 3
	var sessions []sweep
	for _, sec := range sessionSeconds {
		model := onlinetime.Sporadic{SessionLength: time.Duration(sec) * time.Second}
		sessions = append(sessions, sweep{"facebook", model, replica.ConRep, fixedDegree, o.UserDegree})
	}
	for i, metric := range []Metric{MetricAvailability, MetricAoDTime, MetricAoDActivity, MetricDelayHours} {
		out = append(out, figure{
			id:     "fig8" + "abcd"[i:i+1],
			title:  fmt.Sprintf("Effect of session length in Sporadic (degree %d): %s", fixedDegree, metric),
			xLabel: "session length (sec)",
			metric: metric,
			logX:   true,
			sweeps: sessions,
			xs:     sessionSeconds,
		})
	}

	// Fig. 9: a metric against the user degree (1..UserDegree), the
	// replication degree allowed to reach the user degree (all friends may
	// host replicas). A degree no Facebook user has is left out.
	var degrees []sweep
	var xs []float64
	for d := 1; d <= o.UserDegree; d++ {
		if s.Facebook != nil && len(s.Facebook.Graph.UsersWithDegree(d)) == 0 {
			continue
		}
		degrees = append(degrees, sweep{"facebook", onlinetime.Sporadic{}, replica.ConRep, d, d})
		xs = append(xs, float64(d))
	}
	for i, metric := range []Metric{MetricAvailability, MetricDelayHours} {
		out = append(out, figure{
			id:     "fig9" + "ab"[i:i+1],
			title:  fmt.Sprintf("Effect of user degree in Sporadic: %s", metric),
			xLabel: "user degree",
			metric: metric,
			sweeps: degrees,
			xs:     xs,
		})
	}
	return out
}

// Suite binds the two datasets and regenerates any figure of the paper by
// its identifier ("fig2", "fig3a" … "fig11d").
type Suite struct {
	Facebook *trace.Dataset
	Twitter  *trace.Dataset
	Opts     Options
}

// FigureIDs lists every figure the suite can regenerate, in paper order.
func (s *Suite) FigureIDs() []string {
	ids := []string{"fig2"}
	for _, f := range s.figures() {
		ids = append(ids, f.id)
	}
	return ids
}

// Figure regenerates the figure with the given identifier.
func (s *Suite) Figure(id string) (plot.Figure, error) {
	figs, err := s.Figures([]string{id})
	if err != nil {
		return plot.Figure{}, err
	}
	return figs[0], nil
}

// Figures regenerates the figures with the given identifiers, in order. The
// figures are views of their sweeps: each distinct sweep among them runs
// once, however many figures read it.
func (s *Suite) Figures(ids []string) ([]plot.Figure, error) {
	byID := make(map[string]figure)
	for _, f := range s.figures() {
		byID[f.id] = f
	}
	results := make(map[sweep]*Result)
	for _, id := range ids {
		f, ok := byID[id]
		switch {
		case id == "fig2":
			continue
		case !ok:
			return nil, fmt.Errorf("unknown figure %q", id)
		case len(f.sweeps) == 0:
			return nil, fmt.Errorf("figure %s: %w", id, ErrNoUsers)
		}
		for _, sw := range f.sweeps {
			if _, done := results[sw]; done {
				continue
			}
			res, err := s.run(sw)
			if err != nil {
				return nil, fmt.Errorf("figure %s: %w", id, err)
			}
			results[sw] = res
		}
	}
	out := make([]plot.Figure, len(ids))
	for i, id := range ids {
		if id == "fig2" {
			out[i] = DegreeDistributionFigure(s.Facebook, s.Twitter)
		} else {
			out[i] = byID[id].render(results)
		}
	}
	return out, nil
}

// run executes one sweep with the suite's repeat count and seed.
func (s *Suite) run(sw sweep) (*Result, error) {
	ds := s.Facebook
	if sw.dataset == "twitter" {
		ds = s.Twitter
	}
	if ds == nil {
		return nil, fmt.Errorf("dataset %q not loaded", sw.dataset)
	}
	o := s.Opts.fill()
	return Run(Config{
		Dataset:    ds,
		Model:      sw.model,
		Mode:       sw.mode,
		MaxDegree:  sw.maxDegree,
		UserDegree: sw.userDegree,
		Repeats:    o.Repeats,
		Seed:       o.Seed,
	})
}
