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
// job and plots each policy's row of the metric against the result's
// Degrees: a sweep cell's replication degrees, or a computed entry's axis.
// With xs, cell i is plotted at xs[i] by its value at its largest
// replication degree, and a cell with no analysis population is left out.
type figure struct {
	id, title, xLabel string
	yLabel            string // "" for the metric's name
	metric            core.Metric
	logX              bool
	dropZeros         bool // leave a point of value 0 undrawn
	cells             []job
	xs                []float64
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

// key is the job's identity across specs: a cell's coordinates and every
// spec field its result depends on, or a computed job's figure ID. Two
// figures reading one key read one run.
func (j job) key() string {
	if j.compute != nil {
		return j.figure
	}
	s := j.spec
	return fmt.Sprintf("%s|%d|%d|%d|%d|%s", j.cell.canonicalKey(), s.MaxDegree, s.UserDegree, s.Repeats, s.RootSeed, strings.Join(s.Policies, ","))
}

// sessionSeconds is the paper's Fig. 8 sweep grid (log-spaced,
// 100 s – 100 000 s).
var sessionSeconds = []float64{100, 300, 1000, 3000, 10000, 30000, 100000}

// figures returns every entry of the door over base in FigureIDs order: the
// paper's figures, then the extension experiments.
func figures(base MatrixSpec) []figure {
	// Fig. 2 draws, per dataset, the number of users at each user degree
	// some user has.
	d, _ := base.dataset("facebook")
	out := []figure{computed(figure{
		id:        "fig2",
		title:     "User degree distribution of the datasets",
		xLabel:    "user degree",
		yLabel:    "number of users",
		dropZeros: true,
	}, job{cell: CellSpec{Dataset: d}}, func(fb *trace.Dataset, _ []*onlinetime.Table, shared *caches) ([]string, [][]float64, error) {
		tw, err := shared.named(base, "twitter")
		if err != nil {
			return nil, nil, err
		}
		var labels []string
		var rows [][]float64
		for _, ds := range []*trace.Dataset{fb, tw} {
			var row []float64
			for _, c := range ds.Graph.DegreeHistogram() {
				row = append(row, float64(c))
			}
			labels, rows = append(labels, datasetTitle(ds.Name)), append(rows, row)
		}
		return labels, rows, nil
	})}
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
// jobs share, and its jobs with their outcomes, in run order.
type door struct {
	base    MatrixSpec
	shared  *caches
	jobs    []job
	index   map[string]int // a job's key → its slot in jobs, results and errs
	results []CellResult
	errs    []error
}

// Figures renders the figures with the given IDs (FigureIDs), in order,
// from base's datasets, MaxDegree, UserDegree (> 0), Repeats and RootSeed.
// A sweep figure is a view of the cells of one-cell specs of base, and Fig.
// 2 and the computed experiments are jobs of their own; each distinct job
// runs once on Run's cell loop, over one dataset and schedule cache.
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
	for _, id := range ids {
		f, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("unknown figure %q (%s)", id, strings.Join(FigureIDs(), "|"))
		}
		for _, j := range f.cells {
			if _, ok := base.dataset(j.cell.Dataset.Name); !ok {
				return nil, nil, fmt.Errorf("figure %s: harness: the spec has no %s dataset", id, j.cell.Dataset.Name)
			}
			if _, dup := d.index[j.key()]; !dup {
				d.index[j.key()] = len(d.jobs)
				j.cell.Index = len(d.jobs)
				d.jobs = append(d.jobs, j)
			}
		}
	}
	d.shared = newCaches(d.jobs)
	var err error
	if d.results, d.errs, err = runJobs(d.jobs, RunOptions{Workers: workers}.fill(len(d.jobs)), d.shared, nil, nil); err != nil {
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

// result returns the outcome of one of the door's jobs.
func (d *door) result(j job) (CellResult, error) {
	i := d.index[j.key()]
	if d.errs[i] != nil && j.compute == nil {
		return CellResult{}, fmt.Errorf("cell %s: %w", j.cell.Key(), d.errs[i])
	}
	return d.results[i], d.errs[i]
}

// named returns base's dataset of the given name from the caches.
func (c *caches) named(base MatrixSpec, name string) (*trace.Dataset, error) {
	spec, ok := base.dataset(name)
	if !ok {
		return nil, fmt.Errorf("harness: the spec has no %s dataset", name)
	}
	ds, _, err := c.dataset(spec)
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

// render draws the figure from its jobs' results.
func (f figure) render(d *door) (plot.Figure, error) {
	fig := plot.Figure{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel, LogX: f.logX}
	if fig.YLabel == "" {
		fig.YLabel = f.metric.String()
	}
	metric := metricID(f.metric)
	if f.xs == nil {
		c, err := d.result(f.cells[0])
		if err != nil {
			return fig, err
		}
		for pi, name := range c.Policies {
			s := plot.Series{Label: name}
			for di, y := range c.Metrics[metric][pi] {
				if y != 0 || !f.dropZeros {
					s.X, s.Y = append(s.X, float64(c.Degrees[di])), append(s.Y, y)
				}
			}
			fig.Series = append(fig.Series, s)
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

// metricID returns the manifest identifier of a metric, or "value", the
// key of a computed entry's values, when the figure names none.
func metricID(m core.Metric) string {
	for _, mc := range metricColumns {
		if mc.Metric == m {
			return mc.ID
		}
	}
	return "value"
}

// datasetTitle capitalizes a dataset name for a title ("Facebook").
func datasetTitle(name string) string { return strings.ToUpper(name[:1]) + name[1:] }

// computed makes f a computed entry of the door whose one job is j: rows
// gets j's dataset, its entry's tables when its cell names a model (nil
// otherwise; the first fills every row) and the door's caches, and returns
// one row of values per series label, over the axis 0, 1, …, in f's metric.
func computed(f figure, j job, rows func(ds *trace.Dataset, schedules []*onlinetime.Table, shared *caches) ([]string, [][]float64, error)) figure {
	key := metricID(f.metric)
	j.figure = f.id
	j.compute = func(ds *trace.Dataset, schedules []*onlinetime.Table, shared *caches) (CellResult, error) {
		labels, values, err := rows(ds, schedules, shared)
		if err != nil {
			return CellResult{}, err
		}
		res := CellResult{Policies: labels, Metrics: map[string][][]float64{key: values}}
		for _, row := range values {
			for len(res.Degrees) < len(row) {
				res.Degrees = append(res.Degrees, len(res.Degrees))
			}
		}
		return res, nil
	}
	f.cells = []job{j}
	return f
}

// experiments returns the extension experiments as entries of the door, each
// on the Facebook dataset at the fixed budget its title names, with base's
// RootSeed as its seed and base's Repeats as its repeat count. A2, A3, X4
// and X1/X2 read Fig. 3a's cell's first table; X6 builds its own.
func experiments(base MatrixSpec) []figure {
	var out []figure
	sporadic := one(base, "facebook", Sporadic(), replica.ConRep, base.MaxDegree, base.UserDegree)
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
		computed(figure{
			id:     "ablation-history",
			title:  "A2: MostActive trained on history (budget 3, 50/50 split)",
			xLabel: "ranking (0=historical, 1=oracle, 2=random)",
			metric: core.MetricAoDActivity,
		}, sporadic, func(fb *trace.Dataset, schedules []*onlinetime.Table, _ *caches) ([]string, [][]float64, error) {
			res, err := core.HistorySplit(fb, schedules[0], 3, 0.5, base.RootSeed)
			if err != nil {
				return nil, nil, err
			}
			return []string{"AoD-activity"}, [][]float64{{res.HistoricalAoDActivity, res.OracleAoDActivity, res.RandomAoDActivity}}, nil
		}),
		computed(figure{
			id:     "ablation-churn",
			title:  "A3: availability under replica churn (budget 5)",
			xLabel: "failed replicas",
			metric: core.MetricAvailability,
		}, sporadic, func(fb *trace.Dataset, schedules []*onlinetime.Table, _ *caches) (labels []string, rows [][]float64, err error) {
			churn, err := core.Churn(fb, schedules[0], 5, base.Repeats, base.RootSeed)
			for _, r := range churn {
				labels, rows = append(labels, r.Policy), append(rows, r.Availability)
			}
			return labels, rows, err
		}),
		computed(figure{
			id:     "experiment-loadbalance",
			title:  "X4: replica-host load balance (ConRep, budget 3)",
			xLabel: "statistic (0=mean, 1=max, 2=cv)",
			yLabel: "replica-host load",
		}, sporadic, func(fb *trace.Dataset, schedules []*onlinetime.Table, _ *caches) (labels []string, rows [][]float64, err error) {
			load, err := core.ReplicaLoadBalance(fb, schedules[0], replica.ConRep, 3, base.RootSeed)
			for _, r := range load {
				labels, rows = append(labels, r.Policy), append(rows, []float64{r.MeanLoad, r.MaxLoad, r.CV})
			}
			return labels, rows, err
		}),
		computed(figure{
			id:     "experiment-protocol",
			title:  "X1/X2: protocol-level validation (MaxAv, ConRep, budget 3, Sporadic)",
			xLabel: core.ProtocolFields,
			yLabel: "value",
		}, sporadic, func(fb *trace.Dataset, schedules []*onlinetime.Table, _ *caches) ([]string, [][]float64, error) {
			res, err := core.RunProtocolValidation(core.ProtocolConfig{Dataset: fb, Schedules: schedules[0], Seed: base.RootSeed, MaxWalls: 25, Days: 7})
			if err != nil {
				return nil, nil, err
			}
			s := res.Series("MaxAv/ConRep/Sporadic")
			return []string{s.Label}, [][]float64{s.Y}, nil
		}),
		computed(figure{
			id:    "experiment-arch",
			title: "X6: storage-architecture comparison (ConRep, budget 5, Sporadic)",
			xLabel: "statistic (0=availability, 1=availability-on-demand-time, 2=delay (in hours), " +
				"at degree 5; 3=mean lookup hops, 4=load cv, 5=load gini)",
			yLabel: "value",
		}, job{cell: CellSpec{Dataset: sporadic.cell.Dataset}}, func(fb *trace.Dataset, _ []*onlinetime.Table, _ *caches) (labels []string, rows [][]float64, err error) {
			arch, err := core.RunArchComparison(core.ArchConfig{Dataset: fb, MaxDegree: 5, Repeats: base.Repeats, Seed: base.RootSeed})
			for _, r := range arch {
				for pi, policy := range r.Sweep.Policies {
					label := r.Architecture
					if policy != label {
						label += "/" + policy
					}
					labels = append(labels, label)
					rows = append(rows, []float64{r.Sweep.Last(pi, core.MetricAvailability), r.Sweep.Last(pi, core.MetricAoDTime),
						r.Sweep.Last(pi, core.MetricDelayHours), r.Lookup.MeanHops, r.LoadCV, r.LoadGini})
				}
			}
			return labels, rows, err
		}),
	)
}
