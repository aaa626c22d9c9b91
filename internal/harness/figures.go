package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"dosn/internal/core"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// figure is one entry of the figure door: a figure of the paper's
// evaluation or an extension experiment. A degree panel (xs nil) reads one
// cell and plots the metric against the replication degree. With xs, cell i
// is plotted at xs[i] by its value at its largest replication degree, and a
// cell with no analysis population is left out. An entry with series reads
// no cell and computes its own series from base's Facebook dataset.
type figure struct {
	id, title, xLabel string
	yLabel            string // "" for the metric's name
	metric            core.Metric
	logX              bool
	cells             []job
	xs                []float64
	series            func(d *door, fb *trace.Dataset) ([]plot.Series, error)
}

// one returns the cell of the one-cell spec over (dataset, model, mode) that
// base implies: base's dataset of that name, Repeats and RootSeed, with the
// given sweep bounds and policies (none: the paper's three).
func one(base MatrixSpec, dataset string, model ModelSpec, mode replica.Mode, maxDegree, userDegree int, policies ...string) job {
	d, _ := base.dataset(dataset)
	spec := MatrixSpec{
		Datasets:   []DatasetSpec{d},
		Models:     []ModelSpec{model},
		Modes:      []string{mode.String()},
		Policies:   policies,
		MaxDegree:  maxDegree,
		UserDegree: userDegree,
		Repeats:    base.Repeats,
		RootSeed:   base.RootSeed,
	}.fill()
	return spec.jobs()[0]
}

// key is the cell's identity across specs: its coordinates and every spec
// field its result depends on. Two figures reading one key read one run.
func (j job) key() string {
	s := j.spec
	return fmt.Sprintf("%s|%d|%d|%d|%d|%s", j.cell.canonicalKey(), s.MaxDegree, s.UserDegree, s.Repeats, s.RootSeed, strings.Join(s.Policies, ","))
}

// sessionSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var sessionSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// figures returns every entry of the door over base in FigureIDs order: the
// paper's figures, then the extension experiments.
func figures(base MatrixSpec) []figure {
	out := []figure{{
		id:     "fig2",
		title:  "User degree distribution of the datasets",
		xLabel: "user degree",
		yLabel: "number of users",
		series: degreeSeries,
	}}
	// Figs. 3, 5, 6, 7, 10 and 11 show panels (a)–(d) for the four models.
	models := []ModelSpec{Sporadic(), RandomLength(), FixedLength(2), FixedLength(8)}
	degreePanels := func(fig, dataset string, mode replica.Mode, metric core.Metric, what string, models ...ModelSpec) {
		for i, m := range models {
			out = append(out, figure{
				id:     fig + "abcd"[i:i+1],
				title:  fmt.Sprintf("%s-%s: %s (%s)", datasetTitle(dataset), mode, what, m.Name()),
				xLabel: "replication degree",
				metric: metric,
				cells:  []job{one(base, dataset, m, mode, base.MaxDegree, base.UserDegree)},
			})
		}
	}
	degreePanels("fig3", "facebook", replica.ConRep, core.MetricAvailability, "Availability", models...)
	// Fig 4 shows only the FixedLength panels, for UnconRep.
	degreePanels("fig4", "facebook", replica.UnconRep, core.MetricAvailability, "Availability", models[2:]...)
	degreePanels("fig5", "facebook", replica.ConRep, core.MetricAoDTime, "Availability-on-Demand-Time", models...)
	degreePanels("fig6", "facebook", replica.ConRep, core.MetricAoDActivity, "Availability-on-Demand-Activity", models...)
	degreePanels("fig7", "facebook", replica.ConRep, core.MetricDelayHours, "Update Propagation Delay", models...)
	degreePanels("fig10", "twitter", replica.ConRep, core.MetricAvailability, "Availability", models...)
	degreePanels("fig11", "twitter", replica.ConRep, core.MetricAoDTime, "Availability-on-Demand-Time", models...)

	// Fig. 8: each panel plots one metric against the Sporadic session
	// length, at a fixed replication degree of 3.
	const fixedDegree = 3
	var sessions []job
	for _, sec := range sessionSeconds {
		model := ModelSpec{Kind: "sporadic", SessionSeconds: int(sec)}
		sessions = append(sessions, one(base, "facebook", model, replica.ConRep, fixedDegree, base.UserDegree))
	}
	for i, metric := range []core.Metric{core.MetricAvailability, core.MetricAoDTime, core.MetricAoDActivity, core.MetricDelayHours} {
		out = append(out, figure{
			id:     "fig8" + "abcd"[i:i+1],
			title:  fmt.Sprintf("Effect of session length in Sporadic (degree %d): %s", fixedDegree, metric),
			xLabel: "session length (sec)",
			metric: metric,
			logX:   true,
			cells:  sessions,
			xs:     sessionSeconds,
		})
	}

	// Fig. 9: a metric against the user degree (1..UserDegree), one spec per
	// degree, the replication degree allowed to reach the user degree (all
	// friends may host replicas).
	var degrees []job
	var xs []float64
	for d := 1; d <= base.UserDegree; d++ {
		degrees = append(degrees, one(base, "facebook", Sporadic(), replica.ConRep, d, d))
		xs = append(xs, float64(d))
	}
	for i, metric := range []core.Metric{core.MetricAvailability, core.MetricDelayHours} {
		out = append(out, figure{
			id:     "fig9" + "ab"[i:i+1],
			title:  fmt.Sprintf("Effect of user degree in Sporadic: %s", metric),
			xLabel: "user degree",
			metric: metric,
			cells:  degrees,
			xs:     xs,
		})
	}
	return append(out, experiments(base)...)
}

// FigureIDs lists every figure the door renders: the paper's in paper
// order, then the extension experiments.
func FigureIDs() []string {
	var ids []string
	for _, f := range figures(MatrixSpec{}) {
		ids = append(ids, f.id)
	}
	return ids
}

// door is one pass of the figure door over a base spec: the caches its
// cells and experiments share, and its cells' outcomes in run order.
type door struct {
	base    MatrixSpec
	shared  *caches
	index   map[string]int // a cell's key → its slot in results and errs
	results []CellResult
	errs    []error
}

// Figures renders the figures with the given IDs (FigureIDs), in order,
// from base's datasets, MaxDegree, UserDegree (> 0), Repeats and RootSeed.
// A sweep figure is a view of the cells of one-cell specs of base; each
// distinct cell runs once on Run's cell loop, over the dataset cache Fig. 2
// and the experiments read too.
func Figures(base MatrixSpec, ids []string) ([]plot.Figure, error) {
	_, figs, err := runFigures(base, ids, 0)
	return figs, err
}

// runFigures is Figures on the given number of cell workers (0: Run's
// default), also returning the door the figures were read from.
func runFigures(base MatrixSpec, ids []string, workers int) (*door, []plot.Figure, error) {
	base = base.fill()
	if base.UserDegree <= 0 {
		return nil, nil, fmt.Errorf("harness: figures need a user degree > 0 (Fig. 9 sweeps 1..UserDegree), got %d", base.UserDegree)
	}
	byID := make(map[string]figure)
	for _, f := range figures(base) {
		byID[f.id] = f
	}
	d := &door{base: base, index: make(map[string]int)}
	var jobs []job
	for _, id := range ids {
		f, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("unknown figure %q (%s)", id, strings.Join(FigureIDs(), "|"))
		}
		for _, j := range f.cells {
			if _, dup := d.index[j.key()]; !dup {
				d.index[j.key()] = len(jobs)
				j.cell.Index = len(jobs)
				jobs = append(jobs, j)
			}
		}
	}
	d.shared = newCaches(jobs)
	var err error
	if d.results, d.errs, err = runJobs(jobs, RunOptions{Workers: workers}.fill(len(jobs)), d.shared, nil, nil); err != nil {
		return nil, nil, err
	}
	figs := make([]plot.Figure, len(ids))
	for i, id := range ids {
		fig, err := byID[id].render(d)
		if err != nil {
			return nil, nil, fmt.Errorf("figure %s: %w", id, err)
		}
		figs[i] = fig
	}
	return d, figs, nil
}

// result returns the outcome of one of the door's cells.
func (d *door) result(j job) (CellResult, error) {
	i := d.index[j.key()]
	if d.errs[i] != nil {
		return CellResult{}, fmt.Errorf("cell %s: %w", j.cell.Key(), d.errs[i])
	}
	return d.results[i], nil
}

// dataset returns base's dataset of the given name from the door's cache.
func (d *door) dataset(name string) (*trace.Dataset, error) {
	spec, ok := d.base.dataset(name)
	if !ok {
		return nil, fmt.Errorf("harness: the spec has no %s dataset", name)
	}
	ds, _, err := d.shared.dataset(spec)
	return ds, err
}

// dataset returns the spec's first dataset of the given name, or a
// DatasetSpec with only the name (which Validate rejects) and false.
func (s MatrixSpec) dataset(name string) (DatasetSpec, bool) {
	i := slices.IndexFunc(s.Datasets, func(d DatasetSpec) bool { return d.Name == name })
	if i < 0 {
		return DatasetSpec{Name: name}, false
	}
	return s.Datasets[i], true
}

// render draws the figure from its cells, or computes it.
func (f figure) render(d *door) (plot.Figure, error) {
	fig := plot.Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel, LogX: f.logX}
	if fig.YLabel == "" {
		fig.YLabel = f.metric.String()
	}
	metric := metricID(f.metric)
	switch {
	case f.series != nil:
		fb, err := d.dataset("facebook")
		if err != nil {
			return fig, err
		}
		fig.Series, err = f.series(d, fb)
		return fig, err
	case f.xs == nil:
		c, err := d.result(f.cells[0])
		if err != nil {
			return fig, err
		}
		for pi, name := range c.Policies { // degrees run 0..MaxDegree: a degree is its index
			fig.Series = append(fig.Series, plot.Categorical(name, c.Metrics[metric][pi]...))
		}
		return fig, nil
	}
	var xs []float64
	var cells []CellResult
	for i, j := range f.cells {
		c, err := d.result(j)
		switch {
		case errors.Is(err, core.ErrNoUsers):
			continue // no user has this degree
		case err != nil:
			return fig, err
		}
		xs, cells = append(xs, f.xs[i]), append(cells, c)
	}
	if len(cells) == 0 {
		return fig, core.ErrNoUsers
	}
	for pi, name := range cells[0].Policies {
		ys := make([]float64, len(cells))
		for i, c := range cells {
			ys[i] = c.Metrics[metric][pi][len(c.Degrees)-1]
		}
		fig.Series = append(fig.Series, plot.Series{Label: name, X: slices.Clone(xs), Y: ys})
	}
	return fig, nil
}

// metricID returns the manifest identifier of a metric.
func metricID(m core.Metric) string {
	for _, mc := range metricColumns {
		if mc.Metric == m {
			return mc.ID
		}
	}
	return ""
}

// datasetTitle capitalizes a dataset name for a title ("Facebook").
func datasetTitle(name string) string { return strings.ToUpper(name[:1]) + name[1:] }

// degreeSeries reproduces Fig. 2: the number of users at each user degree,
// one series per dataset.
func degreeSeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	tw, err := d.dataset("twitter")
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, ds := range []*trace.Dataset{fb, tw} {
		var xs, ys []float64
		for deg, c := range ds.Graph.DegreeHistogram() {
			if c > 0 {
				xs = append(xs, float64(deg))
				ys = append(ys, float64(c))
			}
		}
		out = append(out, plot.Series{Label: datasetTitle(ds.Name), X: xs, Y: ys})
	}
	return out, nil
}

// experiments returns the extension experiments as entries of the door, each
// on the Facebook dataset at the fixed budget its title names, with base's
// RootSeed as its seed and base's Repeats as its repeat count.
func experiments(base MatrixSpec) []figure {
	var out []figure
	// A1 is a cell of MaxAv's two set-cover objectives, Random the floor,
	// over degrees 0..5: the activity-targeted variant should win on
	// AoD-activity and lose on raw availability.
	a1 := one(base, "facebook", Sporadic(), replica.ConRep, 5, base.UserDegree, "MaxAv", "MaxAv(activity)", "Random")
	for i, metric := range []core.Metric{core.MetricAvailability, core.MetricAoDActivity} {
		out = append(out, figure{
			id:     "ablation-objective-" + []string{"avail", "aodact"}[i],
			title:  "A1: MaxAv objective ablation",
			xLabel: "replication degree",
			metric: metric,
			cells:  []job{a1},
		})
	}
	return append(out,
		figure{
			id:     "ablation-history",
			title:  "A2: MostActive trained on history (budget 3, 50/50 split)",
			xLabel: "ranking (0=historical, 1=oracle, 2=random)",
			metric: core.MetricAoDActivity,
			series: historySeries,
		},
		figure{
			id:     "ablation-churn",
			title:  "A3: availability under replica churn (budget 5)",
			xLabel: "failed replicas",
			metric: core.MetricAvailability,
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
			xLabel: core.ProtocolFields,
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

func historySeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	res, err := core.HistorySplit(fb, onlinetime.Sporadic{}, 3, 0.5, d.base.RootSeed)
	if err != nil {
		return nil, err
	}
	return []plot.Series{plot.Categorical("AoD-activity", res.HistoricalAoDActivity, res.OracleAoDActivity, res.RandomAoDActivity)}, nil
}

func churnSeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	rows, err := core.Churn(fb, onlinetime.Sporadic{}, 5, d.base.Repeats, d.base.RootSeed)
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, r := range rows {
		out = append(out, plot.Categorical(r.Policy, r.Availability...))
	}
	return out, nil
}

func loadBalanceSeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	rows, err := core.ReplicaLoadBalance(fb, onlinetime.Sporadic{}, replica.ConRep, 3, d.base.RootSeed)
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, r := range rows {
		out = append(out, plot.Categorical(r.Policy, r.MeanLoad, r.MaxLoad, r.CV))
	}
	return out, nil
}

func protocolSeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	res, err := core.RunProtocolValidation(core.ProtocolConfig{Dataset: fb, Seed: d.base.RootSeed, MaxWalls: 25, Days: 7})
	if err != nil {
		return nil, err
	}
	return []plot.Series{res.Series("MaxAv/ConRep/Sporadic")}, nil
}

func archSeries(d *door, fb *trace.Dataset) ([]plot.Series, error) {
	rows, err := core.RunArchComparison(core.ArchConfig{Dataset: fb, MaxDegree: 5, Repeats: d.base.Repeats, Seed: d.base.RootSeed})
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
			out = append(out, plot.Categorical(label,
				r.Sweep.Last(pi, core.MetricAvailability), r.Sweep.Last(pi, core.MetricAoDTime), r.Sweep.Last(pi, core.MetricDelayHours),
				r.Lookup.MeanHops, r.LoadCV, r.LoadGini))
		}
	}
	return out, nil
}
