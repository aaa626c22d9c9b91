package core

import (
	"fmt"
	"slices"
	"strings"
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

// degreeSeries reproduces Fig. 2: the number of users at each user degree,
// one series per dataset.
func degreeSeries(s *Suite, _ Options) ([]plot.Series, error) {
	var out []plot.Series
	for _, name := range []string{"facebook", "twitter"} {
		ds, err := s.dataset(name)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for d, c := range ds.Graph.DegreeHistogram() {
			if c > 0 {
				xs = append(xs, float64(d))
				ys = append(ys, float64(c))
			}
		}
		out = append(out, plot.Series{Label: datasetTitle(ds.Name), X: xs, Y: ys})
	}
	return out, nil
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
	policies   string // "" for the paper's three, "objective" for ablation A1's
}

// figure is one entry of the suite: a figure of the paper's evaluation or an
// extension experiment. A degree panel (xs nil) reads one sweep and plots the
// metric against the replication degree. With xs, sweep i is plotted at xs[i]
// by its value at its largest replication degree. An entry with series reads
// no sweep and computes its own series.
type figure struct {
	id, title, xLabel string
	yLabel            string // "" for the metric's name
	metric            Metric
	logX              bool
	sweeps            []sweep
	xs                []float64
	series            func(s *Suite, o Options) ([]plot.Series, error)
}

// render draws the figure from the results of its sweeps, or computes it.
func (f figure) render(s *Suite, results map[sweep]*Result) (plot.Figure, error) {
	fig := plot.Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel, LogX: f.logX}
	if fig.YLabel == "" {
		fig.YLabel = f.metric.String()
	}
	var err error
	switch {
	case f.series != nil:
		fig.Series, err = f.series(s, s.Opts.fill())
	case f.xs == nil:
		fig.Series = results[f.sweeps[0]].MetricSeries(f.metric)
	default:
		for pi, name := range results[f.sweeps[0]].Policies {
			ys := make([]float64, len(f.sweeps))
			for i, sw := range f.sweeps {
				ys[i] = results[sw].Last(pi, f.metric)
			}
			fig.Series = append(fig.Series, plot.Series{Label: name, X: slices.Clone(f.xs), Y: ys})
		}
	}
	return fig, err
}

// sessionSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var sessionSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// figures returns every entry of the suite in FigureIDs order: the paper's
// figures, then the extension experiments.
func (s *Suite) figures() []figure {
	o := s.Opts.fill()
	out := []figure{{
		id:     "fig2",
		title:  "User degree distribution of the datasets",
		xLabel: "user degree",
		yLabel: "number of users",
		series: degreeSeries,
	}}
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
				sweeps: []sweep{{dataset, m, mode, o.MaxDegree, o.UserDegree, ""}},
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
		sessions = append(sessions, sweep{"facebook", model, replica.ConRep, fixedDegree, o.UserDegree, ""})
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
		degrees = append(degrees, sweep{"facebook", onlinetime.Sporadic{}, replica.ConRep, d, d, ""})
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
	return append(out, experiments()...)
}

// Suite binds the two datasets and regenerates any figure of the paper
// ("fig2", "fig3a" … "fig11d") or extension experiment ("ablation-history",
// "experiment-protocol", …) by its identifier.
type Suite struct {
	Facebook *trace.Dataset
	Twitter  *trace.Dataset
	Opts     Options
}

// FigureIDs lists every figure the suite can regenerate: the paper's in
// paper order, then the extension experiments.
func (s *Suite) FigureIDs() []string {
	var ids []string
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
		case !ok:
			return nil, fmt.Errorf("unknown figure %q (%s)", id, strings.Join(s.FigureIDs(), "|"))
		case f.series == nil && len(f.sweeps) == 0:
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
		fig, err := byID[id].render(s, results)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", id, err)
		}
		out[i] = fig
	}
	return out, nil
}

// dataset returns the suite's dataset of the given name.
func (s *Suite) dataset(name string) (*trace.Dataset, error) {
	ds := s.Facebook
	if name == "twitter" {
		ds = s.Twitter
	}
	if ds == nil {
		return nil, fmt.Errorf("dataset %q not loaded", name)
	}
	return ds, nil
}

// run executes one sweep with the suite's repeat count and seed.
func (s *Suite) run(sw sweep) (*Result, error) {
	ds, err := s.dataset(sw.dataset)
	if err != nil {
		return nil, err
	}
	var policies []replica.Policy   // nil: the paper's three
	if sw.policies == "objective" { // ablation A1's set
		policies = []replica.Policy{
			replica.MaxAv{},
			replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity},
			replica.Random{},
		}
	}
	o := s.Opts.fill()
	return Run(Config{
		Dataset:    ds,
		Model:      sw.model,
		Mode:       sw.mode,
		Policies:   policies,
		MaxDegree:  sw.maxDegree,
		UserDegree: sw.userDegree,
		Repeats:    o.Repeats,
		Seed:       o.Seed,
	})
}

// experiments returns the extension experiments as suite entries, each on the
// Facebook dataset at the fixed budget its title names, reading Repeats and
// Seed from the suite's Options.
func experiments() []figure {
	var out []figure
	// A1 is a sweep of MaxAv's two set-cover objectives, Random the floor,
	// over degrees 0..5: the activity-targeted variant should win on
	// AoD-activity and lose on raw availability.
	for i, metric := range []Metric{MetricAvailability, MetricAoDActivity} {
		out = append(out, figure{
			id:     "ablation-objective-" + []string{"avail", "aodact"}[i],
			title:  "A1: MaxAv objective ablation",
			xLabel: "replication degree",
			metric: metric,
			sweeps: []sweep{{"facebook", onlinetime.Sporadic{}, replica.ConRep, 5, 10, "objective"}},
		})
	}
	return append(out,
		figure{
			id:     "ablation-history",
			title:  "A2: MostActive trained on history (budget 3, 50/50 split)",
			xLabel: "ranking (0=historical, 1=oracle, 2=random)",
			metric: MetricAoDActivity,
			series: historySeries,
		},
		figure{
			id:     "ablation-churn",
			title:  "A3: availability under replica churn (budget 5)",
			xLabel: "failed replicas",
			metric: MetricAvailability,
			series: churnSeries,
		},
		figure{
			id:     "experiment-loadbalance",
			title:  "X4: replica-host load balance (ConRep, budget 3)",
			xLabel: "statistic (0=mean, 1=max, 2=cv)",
			yLabel: "replica-host load",
			series: loadBalanceSeries,
		},
		figure{
			id:     "experiment-protocol",
			title:  "X1/X2: protocol-level validation (MaxAv, ConRep, budget 3, Sporadic)",
			xLabel: protocolFields,
			yLabel: "value",
			series: protocolSeries,
		},
		figure{
			id:    "experiment-arch",
			title: "X6: storage-architecture comparison (ConRep, budget 5, Sporadic)",
			xLabel: "statistic (0=availability, 1=availability-on-demand-time, 2=delay (in hours), " +
				"at degree 5; 3=mean lookup hops, 4=load cv, 5=load gini)",
			yLabel: "value",
			series: archSeries,
		},
	)
}

func historySeries(s *Suite, o Options) ([]plot.Series, error) {
	res, err := HistorySplit(s.Facebook, onlinetime.Sporadic{}, 3, 0.5, o.Seed)
	if err != nil {
		return nil, err
	}
	return []plot.Series{{
		Label: "AoD-activity",
		X:     indices(3),
		Y:     []float64{res.HistoricalAoDActivity, res.OracleAoDActivity, res.RandomAoDActivity},
	}}, nil
}

func churnSeries(s *Suite, o Options) ([]plot.Series, error) {
	rows, err := Churn(s.Facebook, onlinetime.Sporadic{}, 5, o.Repeats, o.Seed)
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, r := range rows {
		out = append(out, plot.Series{Label: r.Policy, X: indices(len(r.Availability)), Y: r.Availability})
	}
	return out, nil
}

func loadBalanceSeries(s *Suite, o Options) ([]plot.Series, error) {
	rows, err := ReplicaLoadBalance(s.Facebook, onlinetime.Sporadic{}, replica.ConRep, 3, o.Seed)
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, r := range rows {
		out = append(out, plot.Series{Label: r.Policy, X: indices(3), Y: []float64{r.MeanLoad, r.MaxLoad, r.CV}})
	}
	return out, nil
}

func protocolSeries(s *Suite, o Options) ([]plot.Series, error) {
	res, err := RunProtocolValidation(ProtocolConfig{Dataset: s.Facebook, Seed: o.Seed, MaxWalls: 25, Days: 7})
	if err != nil {
		return nil, err
	}
	return []plot.Series{res.Series("MaxAv/ConRep/Sporadic")}, nil
}

func archSeries(s *Suite, o Options) ([]plot.Series, error) {
	rows, err := RunArchComparison(ArchConfig{Dataset: s.Facebook, MaxDegree: 5, Repeats: o.Repeats, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, r := range rows {
		for pi, policy := range r.Sweep.Policies {
			label := r.Architecture
			if policy != label {
				label += "/" + policy
			}
			out = append(out, plot.Series{Label: label, X: indices(6), Y: []float64{
				r.Sweep.Last(pi, MetricAvailability), r.Sweep.Last(pi, MetricAoDTime), r.Sweep.Last(pi, MetricDelayHours),
				r.Lookup.MeanHops, r.LoadCV, r.LoadGini,
			}})
		}
	}
	return out, nil
}

// indices returns 0, 1, …, n-1: the x values of a categorical axis.
func indices(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}
