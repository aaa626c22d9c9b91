package core

import (
	"fmt"
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
	// Workers bounds per-sweep parallelism (0 = NumCPU).
	Workers int
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

// PanelSpec identifies one panel of a paper figure: a dataset, an
// online-time model, a placement mode, and the metric plotted.
type PanelSpec struct {
	ID      string
	Dataset string // "facebook" or "twitter"
	Title   string
	Model   onlinetime.Model
	Mode    replica.Mode
	Metric  Metric
}

// panelModels is the (a)-(d) model order used by figures 3, 5, 6, 7, 10, 11.
var panelModels = []struct {
	suffix string
	model  onlinetime.Model
}{
	{suffix: "a", model: onlinetime.Sporadic{}},
	{suffix: "b", model: onlinetime.RandomLength{}},
	{suffix: "c", model: onlinetime.FixedLength{Hours: 2}},
	{suffix: "d", model: onlinetime.FixedLength{Hours: 8}},
}

// StandardPanels returns the sweep panels for figures 3–7 and 10–11.
func StandardPanels() []PanelSpec {
	add := func(out []PanelSpec, fig, dataset string, mode replica.Mode, metric Metric, what string) []PanelSpec {
		for _, pm := range panelModels {
			out = append(out, PanelSpec{
				ID:      fig + pm.suffix,
				Dataset: dataset,
				Title:   fmt.Sprintf("%s-%s: %s (%s)", datasetTitle(dataset), mode, what, pm.model.Name()),
				Model:   pm.model,
				Mode:    mode,
				Metric:  metric,
			})
		}
		return out
	}
	var out []PanelSpec
	out = add(out, "fig3", "facebook", replica.ConRep, MetricAvailability, "Availability")
	// Fig 4 shows only the FixedLength panels for UnconRep.
	out = append(out,
		PanelSpec{ID: "fig4a", Dataset: "facebook", Title: "Facebook-UnconRep: Availability (FixedLength(2h))",
			Model: onlinetime.FixedLength{Hours: 2}, Mode: replica.UnconRep, Metric: MetricAvailability},
		PanelSpec{ID: "fig4b", Dataset: "facebook", Title: "Facebook-UnconRep: Availability (FixedLength(8h))",
			Model: onlinetime.FixedLength{Hours: 8}, Mode: replica.UnconRep, Metric: MetricAvailability},
	)
	out = add(out, "fig5", "facebook", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time")
	out = add(out, "fig6", "facebook", replica.ConRep, MetricAoDActivity, "Availability-on-Demand-Activity")
	out = add(out, "fig7", "facebook", replica.ConRep, MetricDelayHours, "Update Propagation Delay")
	out = add(out, "fig10", "twitter", replica.ConRep, MetricAvailability, "Availability")
	out = add(out, "fig11", "twitter", replica.ConRep, MetricAoDTime, "Availability-on-Demand-Time")
	return out
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

// RunPanel executes the sweep behind one panel and returns the figure.
func RunPanel(ds *trace.Dataset, spec PanelSpec, opts Options) (plot.Figure, error) {
	opts = opts.fill()
	res, err := Run(Config{
		Dataset:    ds,
		Model:      spec.Model,
		Mode:       spec.Mode,
		MaxDegree:  opts.MaxDegree,
		UserDegree: opts.UserDegree,
		Repeats:    opts.Repeats,
		Seed:       opts.Seed,
		Workers:    opts.Workers,
	})
	if err != nil {
		return plot.Figure{}, fmt.Errorf("panel %s: %w", spec.ID, err)
	}
	return plot.Figure{
		ID:     spec.ID,
		Title:  spec.Title,
		XLabel: "replication degree",
		YLabel: spec.Metric.String(),
		Series: res.MetricSeries(spec.Metric),
	}, nil
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

// SessionLengthSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var SessionLengthSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// SessionLengthFigure reproduces one panel of Fig. 8: a metric as a function
// of the Sporadic session length at a fixed replication degree of 3.
func SessionLengthFigure(ds *trace.Dataset, metric Metric, opts Options) (plot.Figure, error) {
	opts = opts.fill()
	const fixedDegree = 3
	fig := plot.Figure{
		ID:     "fig8" + sessionPanelSuffix(metric),
		Title:  fmt.Sprintf("Effect of session length in Sporadic (degree %d): %s", fixedDegree, metric),
		XLabel: "session length (sec)",
		YLabel: metric.String(),
		LogX:   true,
	}
	var results []*Result
	for _, sec := range SessionLengthSeconds {
		res, err := Run(Config{
			Dataset:    ds,
			Model:      onlinetime.Sporadic{SessionLength: time.Duration(sec) * time.Second},
			Mode:       replica.ConRep,
			MaxDegree:  fixedDegree,
			UserDegree: opts.UserDegree,
			Repeats:    opts.Repeats,
			Seed:       opts.Seed,
			Workers:    opts.Workers,
		})
		if err != nil {
			return plot.Figure{}, fmt.Errorf("session %.0fs: %w", sec, err)
		}
		results = append(results, res)
	}
	for pi, name := range results[0].Policies {
		xs := make([]float64, len(results))
		ys := make([]float64, len(results))
		for i, res := range results {
			xs[i] = SessionLengthSeconds[i]
			ys[i] = res.Last(pi, metric)
		}
		fig.Series = append(fig.Series, plot.Series{Label: name, X: xs, Y: ys})
	}
	return fig, nil
}

func sessionPanelSuffix(m Metric) string {
	switch m {
	case MetricAvailability:
		return "a"
	case MetricAoDTime:
		return "b"
	case MetricAoDActivity:
		return "c"
	case MetricDelayHours:
		return "d"
	default:
		return "x"
	}
}

// UserDegreeFigure reproduces one panel of Fig. 9: a metric as a function of
// the user degree (1..10) with the replication degree allowed to reach the
// user degree (all friends may host replicas).
func UserDegreeFigure(ds *trace.Dataset, metric Metric, opts Options) (plot.Figure, error) {
	opts = opts.fill()
	suffix := "a"
	if metric == MetricDelayHours {
		suffix = "b"
	}
	fig := plot.Figure{
		ID:     "fig9" + suffix,
		Title:  fmt.Sprintf("Effect of user degree in Sporadic: %s", metric),
		XLabel: "user degree",
		YLabel: metric.String(),
	}
	type row struct {
		degree int
		res    *Result
	}
	var rows []row
	for d := 1; d <= opts.UserDegree; d++ {
		users := ds.Graph.UsersWithDegree(d)
		if len(users) == 0 {
			continue
		}
		res, err := Run(Config{
			Dataset:   ds,
			Model:     onlinetime.Sporadic{},
			Mode:      replica.ConRep,
			MaxDegree: d, // highest possible replication degree for the user degree
			Users:     users,
			Repeats:   opts.Repeats,
			Seed:      opts.Seed,
			Workers:   opts.Workers,
		})
		if err != nil {
			return plot.Figure{}, fmt.Errorf("user degree %d: %w", d, err)
		}
		rows = append(rows, row{degree: d, res: res})
	}
	if len(rows) == 0 {
		return plot.Figure{}, fmt.Errorf("fig9%s: %w", suffix, ErrNoUsers)
	}
	for pi, name := range rows[0].res.Policies {
		xs := make([]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, rw := range rows {
			xs[i] = float64(rw.degree)
			ys[i] = rw.res.Last(pi, metric)
		}
		fig.Series = append(fig.Series, plot.Series{Label: name, X: xs, Y: ys})
	}
	return fig, nil
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
	for _, p := range StandardPanels() {
		ids = append(ids, p.ID)
	}
	ids = append(ids, "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b")
	return ids
}

// Figure regenerates the figure with the given identifier.
func (s *Suite) Figure(id string) (plot.Figure, error) {
	switch id {
	case "fig2":
		return DegreeDistributionFigure(s.Facebook, s.Twitter), nil
	case "fig8a":
		return SessionLengthFigure(s.Facebook, MetricAvailability, s.Opts)
	case "fig8b":
		return SessionLengthFigure(s.Facebook, MetricAoDTime, s.Opts)
	case "fig8c":
		return SessionLengthFigure(s.Facebook, MetricAoDActivity, s.Opts)
	case "fig8d":
		return SessionLengthFigure(s.Facebook, MetricDelayHours, s.Opts)
	case "fig9a":
		return UserDegreeFigure(s.Facebook, MetricAvailability, s.Opts)
	case "fig9b":
		return UserDegreeFigure(s.Facebook, MetricDelayHours, s.Opts)
	}
	for _, p := range StandardPanels() {
		if p.ID != id {
			continue
		}
		ds := s.Facebook
		if p.Dataset == "twitter" {
			ds = s.Twitter
		}
		if ds == nil {
			return plot.Figure{}, fmt.Errorf("figure %s: dataset %q not loaded", id, p.Dataset)
		}
		return RunPanel(ds, p, s.Opts)
	}
	return plot.Figure{}, fmt.Errorf("unknown figure %q", id)
}
