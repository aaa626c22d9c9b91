package harness

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"dosn/internal/plot"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Claim is one evaluated row of the claims table: its points scored as wins,
// ties and losses, the forced ones counted apart, and on a ledger row
// (PAPER.md's E and S rows) a verdict with the margin that decided it.
type Claim struct {
	ID                         string
	Statement                  string
	Verdict                    string  // holds | refuted | off | no points; "" for an observed shape
	Margin                     float64 // the deciding point's left side − right side
	Measured                   string  // what the margin is made of
	Wins, Ties, Losses, Forced int
}

// ClaimsTable is the claims evaluated over one pass of the figure door.
type ClaimsTable struct {
	Base   MatrixSpec
	Ledger []Claim
	Shapes []Claim
}

// evidence is what the evaluator reads: the figures by ID and their degree
// panels' cells, the sweep cells (for what no figure plots), the datasets.
type evidence struct {
	figs     map[string]plot.Figure
	panels   map[string]cell
	cells    []cell
	datasets map[string]*trace.Dataset
}

// cell is a sweep cell's result with its owners' user degree.
type cell struct {
	CellResult
	userDegree int
}

// forced reports whether every policy's replicas must cover the same
// minutes at replication degree k: none at 0, and under UnconRep from the
// user degree on every friend's (MaxAv may stop short, once no friend adds
// a minute), so availability and AoD-time are equal there.
func (c cell) forced(k float64) bool {
	return k == 0 || c.Mode == "UnconRep" && k >= float64(c.userDegree)
}

// Claims renders every figure of the door over base and evaluates the claims
// table over them.
func Claims(base MatrixSpec) (*ClaimsTable, error) {
	d, figs, err := runFigures(base, FigureIDs(), 0)
	if err != nil {
		return nil, err
	}
	ev, err := d.evidence(figs)
	if err != nil {
		return nil, err
	}
	t := &ClaimsTable{Base: d.base}
	for _, r := range ev.rows() {
		if r.quant == "count" {
			t.Shapes = append(t.Shapes, r.eval())
		} else {
			t.Ledger = append(t.Ledger, r.eval())
		}
	}
	return t, nil
}

// evidence gathers what the evaluator reads from a pass of the door and the
// figures it rendered. Its cells are the sweep cells that ran: a computed
// entry's values reach the evaluator only through its figure.
func (d *door) evidence(figs []plot.Figure) (evidence, error) {
	ev := evidence{figs: make(map[string]plot.Figure), panels: make(map[string]cell), datasets: make(map[string]*trace.Dataset)}
	for _, f := range figs {
		ev.figs[f.ID] = f
	}
	for i, j := range d.jobs {
		if j.compute == nil && d.errs[i] == nil {
			ev.cells = append(ev.cells, cell{d.results[i], j.spec.UserDegree})
		}
	}
	for _, f := range figures(d.base) {
		if i, ran := d.index[f.cells[0].key()]; ran && f.xs == nil && f.cells[0].compute == nil {
			ev.panels[f.id] = cell{d.results[i], f.cells[0].spec.UserDegree}
		}
	}
	for _, name := range []string{"facebook", "twitter"} {
		var err error
		if ev.datasets[name], err = d.shared.named(d.base, name); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// row is one claim as data: two sides, the relation (">", "≥" or "=") each
// point's left side should bear to its right, and a quantifier ("all" or
// "any" for a ledger verdict, "count" for an observed shape). note writes
// what a ledger margin is made of, from the unforced points and the decider.
type row struct {
	id, statement string
	a             side
	rel           string
	b             side
	quant         string
	note          func(ps []pair, p pair) string
}

// holds reports whether a point whose sides differ by d bears the relation.
func holds(rel string, d float64) bool { return d > 0 && rel != "=" || d == 0 && rel != ">" }

// point is one value a side reads, with where it was read.
type point struct {
	x, y   float64
	src    string // the figure ID, or a cell's dataset/model
	label  string // the series or policy
	forced bool
}

// pair is one point of a row: its left and right sides.
type pair struct{ a, b point }

func (p pair) d() float64 { return p.a.y - p.b.y }

// side is one side of a row as series of points. A row's two sides pair up
// series by series and point by point, each as far as the shorter goes.
type side [][]point

// series reads each figure's series with the label, or all of them for "".
func (ev evidence) series(label string, figs ...string) (out side) {
	for _, id := range figs {
		c, degrees := ev.panels[id]
		for _, s := range ev.figs[id].Series {
			if label == "" || s.Label == label {
				ps := make([]point, len(s.Y))
				for i, y := range s.Y {
					ps[i] = point{x: s.X[i], y: y, src: id, label: s.Label, forced: degrees && c.forced(s.X[i])}
				}
				out = append(out, ps)
			}
		}
	}
	return out
}

// placed reads the replicas each policy places at each replication degree
// (the budget) in every ConRep sweep cell and in the UnconRep cell of the
// same dataset, model and user degree: one side for each mode. Budget 0 is
// forced.
func (ev evidence) placed() (unconrep, conrep side) {
	for _, c := range ev.cells {
		u := slices.IndexFunc(ev.cells, func(o cell) bool {
			return o.Mode == "UnconRep" && o.Dataset == c.Dataset && o.Model == c.Model && o.userDegree == c.userDegree
		})
		if c.Mode != "ConRep" || u < 0 || !slices.Equal(c.Policies, ev.cells[u].Policies) || !slices.Equal(c.Degrees, ev.cells[u].Degrees) {
			continue
		}
		for pi, policy := range c.Policies {
			for _, m := range []struct {
				c    cell
				side *side
			}{{ev.cells[u], &unconrep}, {c, &conrep}} {
				ps := make([]point, len(c.Degrees))
				for di, k := range c.Degrees {
					ps[di] = point{x: float64(k), y: m.c.Metrics["effective_replicas"][pi][di], src: c.Dataset + "/" + c.Model, label: policy, forced: k == 0}
				}
				*m.side = append(*m.side, ps)
			}
		}
	}
	return unconrep, conrep
}

// each rewrites a copy of every series of s with f.
func each(s side, f func(ps []point) []point) side {
	out := make(side, len(s))
	for i, ps := range s {
		out[i] = f(slices.Clone(ps))
	}
	return out
}

// from keeps each series from its point k on; at keeps its point k alone.
func from(k int, s side) side { return span(k, math.MaxInt, s) }
func at(k int, s side) side   { return span(k, k+1, s) }

func span(i, j int, s side) side {
	return each(s, func(ps []point) []point { return ps[min(i, len(ps)):min(j, len(ps))] })
}

// gains reads each point's rise from the one before it; a rise between two
// forced points is forced.
func gains(s side) side {
	return each(s, func(ps []point) []point {
		for i := len(ps) - 1; i > 0; i-- {
			ps[i].y -= ps[i-1].y
			ps[i].forced = ps[i].forced && ps[i-1].forced
		}
		return ps[min(1, len(ps)):]
	})
}

// konst reads c wherever s has a point.
func konst(c float64, s side) side {
	return each(s, func(ps []point) []point { return slices.Repeat([]point{{y: c}}, len(ps)) })
}

// eval scores the row's points. A ledger row's verdict and margin come from
// its deciding unforced point — under "any" the best, under "all" the worst
// (for "=" the farthest from equal) — and without one it has "no points".
func (r row) eval() Claim {
	c := Claim{ID: r.id, Statement: r.statement}
	var open []pair
	for i := range min(len(r.a), len(r.b)) {
		for j := range min(len(r.a[i]), len(r.b[i])) {
			p := pair{r.a[i][j], r.b[i][j]}
			switch {
			case p.a.forced || p.b.forced:
				c.Forced++
				continue
			case p.d() == 0:
				c.Ties++
			case p.d() > 0 && r.rel != "=":
				c.Wins++
			default:
				c.Losses++
			}
			open = append(open, p)
		}
	}
	if r.quant == "count" || len(open) == 0 {
		c.Verdict = map[bool]string{true: "no points"}[r.quant != "count"]
		return c
	}
	by := func(p, q pair) int {
		if r.rel == "=" {
			return cmp.Compare(math.Abs(q.d()), math.Abs(p.d()))
		}
		return cmp.Compare(p.d(), q.d())
	}
	p := slices.MinFunc(open, by)
	if r.quant == "any" {
		p = slices.MaxFunc(open, by)
	}
	c.Margin, c.Verdict, c.Measured = p.d(), "holds", r.note(open, p)
	if !holds(r.rel, c.Margin) {
		c.Verdict = map[bool]string{false: "refuted", true: "off"}[r.rel == "="]
	}
	return c
}

// rows is the claims table over the evidence: PAPER.md's expected shapes
// E1–E5 and setup rows S5–S9, then the observed shapes.
func (ev evidence) rows() []row {
	unconrep, conrep := ev.placed()
	fig11 := ev.series("", "fig11b", "fig11c", "fig11d")
	history := ev.series("AoD-activity", "ablation-history")                 // the rankings [historical, oracle, random]
	protocol := ev.series("MaxAv/ConRep/Sporadic", "experiment-protocol")    // field 2: analytic worst case, 3: measured maximum
	aodact, avail := "ablation-objective-aodact", "ablation-objective-avail" // A1, over the budgets 0..5
	rs := []row{
		{id: "E1", statement: "Under ConRep a policy may place fewer replicas than under UnconRep at the same budget.",
			a: unconrep, rel: ">", b: conrep, quant: "any",
			note: func(_ []pair, p pair) string {
				return fmt.Sprintf("largest gap: %s places %.4g under UnconRep, %.4g under ConRep at budget %.0f on %s", p.a.label, p.a.y, p.b.y, p.a.x, p.a.src)
			}},
		{id: "E2", statement: "On Twitter, AoD-time stays below 1.0 for the continuous models (Fig. 11b–d).",
			a: konst(1, fig11), rel: ">", b: fig11, quant: "all",
			note: func(_ []pair, p pair) string {
				return fmt.Sprintf("1 − largest AoD-time (%.4f, %s %s at degree %g)", p.b.y, p.b.src, p.b.label, p.b.x)
			}},
		{id: "E3", statement: "MostActive ranked on past interactions beats a random ranking on future AoD-activity (A2).",
			a: at(0, history), rel: ">", b: at(2, history), quant: "all",
			note: func(_ []pair, p pair) string { // a decider means history has its three rankings
				return fmt.Sprintf("historical %.4f − random %.4f; oracle %.4f", p.a.y, p.b.y, history[0][1].y)
			}},
		{id: "E4", statement: "MaxAv(activity) wins on AoD-activity and loses on availability against MaxAv (A1, budget 5).",
			a: at(5, slices.Concat(ev.series("MaxAv(activity)", aodact), ev.series("MaxAv", avail))), rel: ">",
			b: at(5, slices.Concat(ev.series("MaxAv", aodact), ev.series("MaxAv(activity)", avail))), quant: "all",
			note: func(ps []pair, _ pair) string {
				ps = append(ps, pair{}, pair{}) // a missing panel reads 0
				return fmt.Sprintf("min(AoD-activity gain %+.4f, availability loss %+.4f)", ps[0].d(), ps[1].d())
			}},
		{id: "E5", statement: "Delivered delays are at or below the analytic worst-case delay (X1/X2).",
			a: at(2, protocol), rel: "≥", b: at(3, protocol), quant: "all",
			note: func(_ []pair, p pair) string {
				return fmt.Sprintf("analytic %.4f h − measured max %.4f h", p.a.y, p.b.y)
			}},
	}

	// The setup rows hold only on the stated number exactly.
	setup := func(id, statement, dataset string, f func(*trace.Dataset) float64, stated float64) {
		var measured side
		if ds := ev.datasets[dataset]; ds != nil {
			measured = side{{{y: f(ds)}}}
		}
		rs = append(rs, row{id: id, statement: statement, a: measured, rel: "=", b: side{{{y: stated}}}, quant: "all",
			note: func(_ []pair, p pair) string {
				return fmt.Sprintf("%s (stated %s)", number(p.a.y, false), number(p.b.y, false))
			}})
	}
	users := func(ds *trace.Dataset) float64 { return float64(ds.NumUsers()) }
	degree := func(ds *trace.Dataset) float64 { return ds.Graph.AverageDegree() }
	modal := func(ds *trace.Dataset) float64 { return float64(ds.Graph.ModalDegree()) }
	perUser := func(ds *trace.Dataset) float64 { return float64(ds.NumActivities()) / float64(ds.NumUsers()) }
	days := func(ds *trace.Dataset) float64 { // the calendar days the activity touches
		from, to, ok := ds.TimeBounds()
		if !ok {
			return 0
		}
		const day = 24 * time.Hour
		last := to.Add(-time.Second) // TimeBounds' end is one second past the last activity
		return float64(last.Truncate(day).Sub(from.Truncate(day))/day + 1)
	}
	below := func(ds *trace.Dataset) (n float64) { // the users below the filter's activity threshold
		for u := range ds.NumUsers() {
			if ds.CreatedCount(socialgraph.UserID(u)) < trace.PaperMinActivity {
				n++
			}
		}
		return n
	}
	setup("S5", "Facebook users after the activity filter", "facebook", users, trace.PaperFacebookUsers)
	setup("S5", "Facebook mean degree", "facebook", degree, 41)
	setup("S5", "Facebook wall posts per user", "facebook", perUser, 50)
	setup("S6", "Twitter users after the activity filter", "twitter", users, trace.PaperTwitterUsers)
	setup("S6", "Twitter mean follower degree", "twitter", degree, 76)
	setup("S7", "Facebook modal degree", "facebook", modal, 10)
	setup("S7", "Twitter modal degree", "twitter", modal, 10)
	setup("S8", "Twitter span in days", "twitter", days, 14)
	setup("S9", "Facebook users below 10 created activities", "facebook", below, 0)
	setup("S9", "Twitter users below 10 created activities", "twitter", below, 0)

	// Shapes between policies, modes or datasets compare replication degrees
	// from 1 on; a step or a gain compares each point with the one before.
	shape := func(statement string, a, b side) {
		rs = append(rs, row{statement: statement, a: a, rel: "≥", b: b, quant: "count"})
	}
	fig3, fig10 := []string{"fig3a", "fig3b", "fig3c", "fig3d"}, []string{"fig10a", "fig10b", "fig10c", "fig10d"}
	fig5, fig11all := []string{"fig5a", "fig5b", "fig5c", "fig5d"}, []string{"fig11a", "fig11b", "fig11c", "fig11d"}
	fig7 := []string{"fig7a", "fig7b", "fig7c", "fig7d"}
	for _, m := range []struct {
		what string
		figs []string
	}{
		{"availability (ConRep, Figs. 3, 10)", slices.Concat(fig3, fig10)},
		{"availability (UnconRep, Fig. 4)", []string{"fig4a", "fig4b"}},
		{"AoD-time (Figs. 5, 11)", slices.Concat(fig5, fig11all)},
		{"AoD-activity (Fig. 6)", []string{"fig6a", "fig6b", "fig6c", "fig6d"}},
		{"delay (Fig. 7)", fig7},
	} {
		for _, o := range [][2]string{{"MaxAv", "MostActive"}, {"MostActive", "Random"}, {"MaxAv", "Random"}} {
			shape(fmt.Sprintf("%s ≥ %s, %s", o[0], o[1], m.what), from(1, ev.series(o[0], m.figs...)), from(1, ev.series(o[1], m.figs...)))
		}
	}
	availability, delay := gains(ev.series("", slices.Concat(fig3, fig10)...)), ev.series("", fig7...)
	fig8a, fig8d, fig9a, fig9b := ev.series("", "fig8a"), ev.series("", "fig8d"), ev.series("", "fig9a"), ev.series("", "fig9b")
	shape("UnconRep ≥ ConRep availability, FixedLength 2 h and 8 h (Fig. 4 vs Fig. 3c, d)", from(1, ev.series("", "fig4a", "fig4b")), from(1, ev.series("", "fig3c", "fig3d")))
	shape("Delay grows with the replication degree (Fig. 7)", from(2, delay), from(1, delay))
	shape("Availability gains shrink as the replication degree grows (Figs. 3, 10)", availability, from(1, availability))
	shape("Availability rises with the Sporadic session length (Fig. 8a)", from(1, fig8a), fig8a)
	shape("Delay falls as the Sporadic session length grows (Fig. 8d)", fig8d, from(1, fig8d))
	shape("Availability rises with the user degree (Fig. 9a)", from(1, fig9a), fig9a)
	shape("Delay grows with the user degree (Fig. 9b)", from(1, fig9b), fig9b)
	shape("Facebook ≥ Twitter availability (Fig. 3 vs Fig. 10)", from(1, ev.series("", fig3...)), from(1, ev.series("", fig10...)))
	shape("Facebook ≥ Twitter AoD-time (Fig. 5 vs Fig. 11)", from(1, ev.series("", fig5...)), from(1, ev.series("", fig11all...)))
	// X6 plots one statistic per x: 0 availability, 5 load Gini.
	social, random := ev.series("SocialDHT", "experiment-arch"), ev.series("RandomDHT", "experiment-arch")
	shape("SocialDHT ≥ RandomDHT, availability (X6)", at(0, social), at(0, random))
	shape("SocialDHT ≤ RandomDHT, load Gini (X6)", at(5, random), at(5, social))
	return rs
}

// WriteResults writes the README's Results section body: the method, the
// ledger rows with their verdicts and margins, the observed shapes, and what
// was not measured. command is the dosn-sim command line that renders the
// figures over t.Base, named as the numbers' source.
func (t *ClaimsTable) WriteResults(w io.Writer, command string) error {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	var users []string
	for _, d := range t.Base.Datasets {
		users = append(users, fmt.Sprintf("%d %s", d.Users, d.Name))
	}
	p("Generated from `%s`;", command)
	p("every number below is reproducible bit for bit from that command.")
	p("")
	p("**Method.** Both traces are synthetic, calibrated to the statistics the")
	p("paper reports (`internal/trace/synth.go`).")
	p("The generator draws %s users.", strings.Join(users, " and "))
	p("The paper's activity filter then keeps the users with at least %d", trace.PaperMinActivity)
	p("created activities, in one pass, and drops every activity that touches a")
	p("removed user, so a kept user can end below the threshold (row S9). Every")
	p("sweep figure is a view of matrix cells, each averaging %d repetitions.", t.Base.Repeats)
	p("Figs. 3–7, 10 and 11 read the cells over the degree-%d users, replication", t.Base.UserDegree)
	p("degree 0..%d; A1 reads one over replication degree 0..5. Fig. 8 reads the", t.Base.MaxDegree)
	p("Sporadic session-length cells over the same users at replication degree 3.")
	p("Fig. 9 reads one cell per user degree 1..%d, its replication degree", t.Base.UserDegree)
	p("reaching the user degree. The experiments A2, A3, X1/X2 and X6 score the")
	p("degree-%d users too; X4 places the replicas of every user, because a host's", t.Base.UserDegree)
	p("load counts every owner it serves. X1/X2 follows every post on a wall")
	p("through the wall's group minute by minute (`metrics.Delivery`): the")
	p("creator hands it to the lowest-ID member online, at creation or at its")
	p("own next session start; two members exchange when either one's session")
	p("starts while the other is online, and one minute after either receives")
	p("it. Each row's points are *wins* (its")
	p("relation holds strictly), *ties* (equal sides) or *losses*; a point where")
	p("every policy's replicas must cover the same minutes (replication degree")
	p("0, and UnconRep from the user degree on) is *forced*, counted apart and")
	p("deciding nothing. The ledger rows, PAPER.md's E and S rows, have a")
	p("verdict and the margin that decided it, with no tolerance: `holds`,")
	p("`refuted` (a stated effect the run contradicts), `off` (a stated number")
	p("the run misses; margin = measured − stated) or `no points`.")
	p("")
	p("| row | claim | verdict | margin | measured | wins | ties | losses | forced |")
	p("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
	for _, c := range t.Ledger {
		p("| %s | %s | %s | %s | %s | %d | %d | %d | %d |", c.ID, c.Statement, c.Verdict, number(c.Margin, true), c.Measured, c.Wins, c.Ties, c.Losses, c.Forced)
	}
	p("")
	p("**Observed shapes.** No ledger row states these. They are observations of")
	p("this repository and get no verdict. A shape between policies, modes or")
	p("datasets compares replication degrees from 1 on.")
	p("")
	p("| shape | wins | ties | losses | forced |")
	p("| --- | --- | --- | --- | --- |")
	for _, c := range t.Shapes {
		p("| %s | %d | %d | %d | %d |", c.Statement, c.Wins, c.Ties, c.Losses, c.Forced)
	}
	p("")
	p("**Not measured.** The paper's own traces, which are not redistributable, and")
	p("its numeric results: no row has been checked against the paper's text. Every")
	p("verdict comes from one seed family; how it moves with the seeds and the")
	p("calibration constants is not measured.")
	_, err := io.WriteString(w, b.String())
	return err
}

// number formats a table value: an integer exactly, anything else to four
// significant digits; signed when asked.
func number(v float64, signed bool) string {
	format := "%.4g"
	if v == float64(int64(v)) {
		format = "%.0f"
	}
	if signed {
		format = "%+" + format[1:]
	}
	return fmt.Sprintf(format, v)
}
