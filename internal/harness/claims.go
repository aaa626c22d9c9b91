package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dosn/internal/plot"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// Claim is one row of the claims table. A ledger row (PAPER.md's E and S
// rows) carries a verdict and the margin it was reached by, with no
// tolerance: holds, refuted (a stated effect the run contradicts) or off (a
// stated number the run misses). An observed shape has no ledger source and
// no verdict; it counts the points where it holds.
type Claim struct {
	ID        string
	Statement string
	Verdict   string  // holds | refuted | off; "" for an observed shape
	Margin    float64 // E rows: > 0 holds (E5: ≥ 0); S rows: measured − stated
	Measured  string  // what the margin is made of
	Held, Of  int     // an observed shape's points where it holds, of all
}

// ClaimsTable is the claims evaluated over one pass of the figure door.
type ClaimsTable struct {
	Base   MatrixSpec
	Ledger []Claim
	Shapes []Claim
}

// evidence is what the evaluator reads: the rendered figures by ID, the
// friend-replication cells the door ran (for quantities no figure plots),
// and the datasets by name.
type evidence struct {
	figs     map[string]plot.Figure
	cells    []CellResult
	datasets map[string]*trace.Dataset
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
	t := evaluate(ev)
	t.Base = d.base
	return t, nil
}

// evidence gathers what the evaluator reads from a pass of the door and the
// figures it rendered. Its cells are the sweep cells that ran: a computed
// entry's values reach the evaluator only through its figure.
func (d *door) evidence(figs []plot.Figure) (evidence, error) {
	ev := evidence{figs: make(map[string]plot.Figure), datasets: make(map[string]*trace.Dataset)}
	for _, f := range figs {
		ev.figs[f.ID] = f
	}
	for i, j := range d.jobs {
		if j.compute == nil && d.errs[i] == nil {
			ev.cells = append(ev.cells, d.results[i])
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

// evaluate computes every row of the table from the evidence.
func evaluate(ev evidence) *ClaimsTable {
	t := &ClaimsTable{}
	t.Ledger = append(effectRows(ev), setupRows(ev.datasets)...)
	t.Shapes = shapeRows(ev.figs)
	return t
}

// effect returns an E row: it holds when holds is true, and is refuted
// otherwise.
func effect(id, statement string, margin float64, holds bool, measured string) Claim {
	verdict := "refuted"
	if holds {
		verdict = "holds"
	}
	return Claim{ID: id, Statement: statement, Verdict: verdict, Margin: margin, Measured: measured}
}

// effectRows evaluates the ledger's expected shapes, E1–E5.
func effectRows(ev evidence) []Claim {
	var out []Claim

	// E1 reads the cells: no figure plots the effective replica count.
	short, where := 0.0, "none"
	for _, c := range ev.cells {
		if c.Mode != "ConRep" {
			continue
		}
		for pi, policy := range c.Policies {
			for di, k := range c.Degrees {
				if gap := float64(k) - c.Metrics["effective_replicas"][pi][di]; gap > short {
					short = gap
					where = fmt.Sprintf("%s places %.4g at budget %d on %s/%s/ConRep", policy, float64(k)-gap, k, c.Dataset, c.Model)
				}
			}
		}
	}
	out = append(out, effect("E1", "Under ConRep a policy may place fewer replicas than the budget.", short, short > 0,
		"largest shortfall: "+where))

	// E2: Twitter AoD-time at every point of the continuous-model panels.
	most, where := 0.0, ""
	for _, id := range []string{"fig11b", "fig11c", "fig11d"} {
		for _, s := range ev.figs[id].Series {
			for i, y := range s.Y {
				if where == "" || y > most {
					most, where = y, fmt.Sprintf("%s %s at degree %g", id, s.Label, s.X[i])
				}
			}
		}
	}
	out = append(out, effect("E2", "On Twitter, AoD-time stays below 1.0 for the continuous models (Fig. 11b–d).", 1-most, most < 1,
		fmt.Sprintf("1 − largest AoD-time (%.4f, %s)", most, where)))

	// E3: A2's rankings are [historical, oracle, random].
	if y := series(ev.figs["ablation-history"], "AoD-activity"); len(y) == 3 {
		out = append(out, effect("E3", "MostActive ranked on past interactions beats a random ranking on future AoD-activity (A2).",
			y[0]-y[2], y[0] > y[2], fmt.Sprintf("historical %.4f − random %.4f; oracle %.4f", y[0], y[2], y[1])))
	}

	// E4: A1 at its largest budget.
	act := ev.figs["ablation-objective-aodact"]
	avail := ev.figs["ablation-objective-avail"]
	wins := lastOf(act, "MaxAv(activity)") - lastOf(act, "MaxAv")
	loses := lastOf(avail, "MaxAv") - lastOf(avail, "MaxAv(activity)")
	out = append(out, effect("E4", "MaxAv(activity) wins on AoD-activity and loses on availability against MaxAv (A1, budget 5).",
		min(wins, loses), wins > 0 && loses > 0, fmt.Sprintf("min(AoD-activity gain %+.4f, availability loss %+.4f)", wins, loses)))

	// E5: the protocol figure's field 2 is the analytic worst case, field 3
	// the measured maximum.
	if y := series(ev.figs["experiment-protocol"], "MaxAv/ConRep/Sporadic"); len(y) > 3 {
		out = append(out, effect("E5", "Measured delays in the runtime are at or below the analytic worst-case delay (X1/X2).",
			y[2]-y[3], y[3] <= y[2], fmt.Sprintf("analytic %.4f h − measured max %.4f h", y[2], y[3])))
	}
	return out
}

// series returns the y values of the figure's series with the given label.
func series(f plot.Figure, label string) []float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y
		}
	}
	return nil
}

// lastOf returns a series' value at its largest x.
func lastOf(f plot.Figure, label string) float64 {
	y := series(f, label)
	if len(y) == 0 {
		return 0
	}
	return y[len(y)-1]
}

// setupRows holds the ledger's numeric setup rows, S5–S9, to the datasets.
// A row holds only on the stated number exactly.
func setupRows(datasets map[string]*trace.Dataset) []Claim {
	fb, tw := datasets["facebook"], datasets["twitter"]
	row := func(id, statement string, measured, stated float64) Claim {
		c := Claim{ID: id, Statement: statement, Verdict: "holds", Margin: measured - stated,
			Measured: fmt.Sprintf("%s (stated %s)", number(measured, false), number(stated, false))}
		if c.Margin != 0 {
			c.Verdict = "off"
		}
		return c
	}
	perUser := func(ds *trace.Dataset) float64 { return float64(ds.NumActivities()) / float64(ds.NumUsers()) }
	return []Claim{
		row("S5", "Facebook users after the activity filter", float64(fb.NumUsers()), trace.PaperFacebookUsers),
		row("S5", "Facebook mean degree", fb.Graph.AverageDegree(), 41),
		row("S5", "Facebook wall posts per user", perUser(fb), 50),
		row("S6", "Twitter users after the activity filter", float64(tw.NumUsers()), trace.PaperTwitterUsers),
		row("S6", "Twitter mean follower degree", tw.Graph.AverageDegree(), 76),
		row("S7", "Facebook modal degree", float64(fb.Graph.ModalDegree()), 10),
		row("S7", "Twitter modal degree", float64(tw.Graph.ModalDegree()), 10),
		row("S8", "Twitter span in days", float64(spanDays(tw)), 14),
		row("S9", "Facebook users below 10 created activities", float64(belowActivity(fb)), 0),
		row("S9", "Twitter users below 10 created activities", float64(belowActivity(tw)), 0),
	}
}

// spanDays returns the number of calendar days the trace's activity touches.
func spanDays(ds *trace.Dataset) int {
	from, to, ok := ds.TimeBounds()
	if !ok {
		return 0
	}
	const day = 24 * time.Hour
	last := to.Add(-time.Second) // TimeBounds' end is one second past the last activity
	return int(last.Truncate(day).Sub(from.Truncate(day))/day) + 1
}

// belowActivity counts the users that created fewer activities than the
// paper's filter admits.
func belowActivity(ds *trace.Dataset) int {
	n := 0
	for u := range ds.NumUsers() {
		if ds.CreatedCount(socialgraph.UserID(u)) < trace.PaperMinActivity {
			n++
		}
	}
	return n
}

// shape counts, over pairs of figure points, where a comparison holds.
type shape struct {
	held, of int
}

func (s *shape) add(ok bool) {
	s.of++
	if ok {
		s.held++
	}
}

func (s shape) claim(statement string) Claim {
	return Claim{Statement: statement, Held: s.held, Of: s.of}
}

// shapeRows counts the observed shapes over the figures. A degree panel's
// point at replication degree 0 (the owner alone) is the same for every
// policy and is not counted.
func shapeRows(figs map[string]plot.Figure) []Claim {
	var out []Claim
	panels := func(fig string, letters string) []plot.Figure {
		var fs []plot.Figure
		for _, l := range letters {
			fs = append(fs, figs[fig+string(l)])
		}
		return fs
	}
	// pointwise counts a ≥ b over the degrees ≥ 1 of the named series of
	// each panel.
	pointwise := func(fs []plot.Figure, a, b string) shape {
		var s shape
		for _, f := range fs {
			ya, yb := series(f, a), series(f, b)
			for i := 1; i < min(len(ya), len(yb)); i++ {
				s.add(ya[i] >= yb[i])
			}
		}
		return s
	}
	for _, m := range []struct {
		what string
		fs   []plot.Figure
	}{
		{"availability (ConRep, Figs. 3, 10)", append(panels("fig3", "abcd"), panels("fig10", "abcd")...)},
		{"availability (UnconRep, Fig. 4)", panels("fig4", "ab")},
		{"AoD-time (Figs. 5, 11)", append(panels("fig5", "abcd"), panels("fig11", "abcd")...)},
		{"AoD-activity (Fig. 6)", panels("fig6", "abcd")},
		{"delay (Fig. 7)", panels("fig7", "abcd")},
	} {
		for _, o := range [][2]string{{"MaxAv", "MostActive"}, {"MostActive", "Random"}, {"MaxAv", "Random"}} {
			out = append(out, pointwise(m.fs, o[0], o[1]).claim(fmt.Sprintf("%s ≥ %s, %s", o[0], o[1], m.what)))
		}
	}

	// pairwise counts a ≥ b over every policy and degree ≥ 1 of two panels
	// drawn on the same axes.
	pairwise := func(as, bs []plot.Figure) shape {
		var s shape
		for i := range as {
			for si, sa := range as[i].Series {
				if si >= len(bs[i].Series) {
					continue
				}
				for j := 1; j < min(len(sa.Y), len(bs[i].Series[si].Y)); j++ {
					s.add(sa.Y[j] >= bs[i].Series[si].Y[j])
				}
			}
		}
		return s
	}
	out = append(out, pairwise(panels("fig4", "ab"), panels("fig3", "cd")).claim("UnconRep ≥ ConRep availability, FixedLength 2 h and 8 h (Fig. 4 vs Fig. 3c, d)"))

	// steps counts, along each series from point from on, the consecutive
	// pairs where the next value is ≥ the previous (rising) or ≤ it.
	steps := func(fs []plot.Figure, from int, rising bool) shape {
		var s shape
		for _, f := range fs {
			for _, sr := range f.Series {
				for i := from + 1; i < len(sr.Y); i++ {
					s.add(rising && sr.Y[i] >= sr.Y[i-1] || !rising && sr.Y[i] <= sr.Y[i-1])
				}
			}
		}
		return s
	}
	out = append(out, steps(panels("fig7", "abcd"), 1, true).claim("Delay grows with the replication degree (Fig. 7)"))
	var saturation shape
	for _, f := range append(panels("fig3", "abcd"), panels("fig10", "abcd")...) {
		for _, sr := range f.Series {
			for k := 2; k < len(sr.Y); k++ {
				saturation.add(sr.Y[k]-sr.Y[k-1] <= sr.Y[k-1]-sr.Y[k-2])
			}
		}
	}
	out = append(out, saturation.claim("Availability gains shrink as the replication degree grows (Figs. 3, 10)"))
	out = append(out,
		steps(panels("fig8", "a"), 0, true).claim("Availability rises with the Sporadic session length (Fig. 8a)"),
		steps(panels("fig8", "d"), 0, false).claim("Delay falls as the Sporadic session length grows (Fig. 8d)"),
		steps(panels("fig9", "a"), 0, true).claim("Availability rises with the user degree (Fig. 9a)"),
		steps(panels("fig9", "b"), 0, true).claim("Delay grows with the user degree (Fig. 9b)"),
		pairwise(panels("fig3", "abcd"), panels("fig10", "abcd")).claim("Facebook ≥ Twitter availability (Fig. 3 vs Fig. 10)"),
		pairwise(panels("fig5", "abcd"), panels("fig11", "abcd")).claim("Facebook ≥ Twitter AoD-time (Fig. 5 vs Fig. 11)"),
	)

	// X6 plots one statistic per x: 0 availability, 3 mean lookup hops, 5
	// load Gini.
	arch := figs["experiment-arch"]
	social, random := series(arch, "SocialDHT"), series(arch, "RandomDHT")
	for _, st := range []struct {
		i      int
		what   string
		higher bool
	}{{0, "availability", true}, {3, "mean lookup hops", false}, {5, "load Gini", false}} {
		var s shape
		if st.i < min(len(social), len(random)) {
			a, b := social[st.i], random[st.i]
			s.add(st.higher && a >= b || !st.higher && a <= b)
		}
		op := "≤"
		if st.higher {
			op = "≥"
		}
		out = append(out, s.claim(fmt.Sprintf("SocialDHT %s RandomDHT, %s (X6)", op, st.what)))
	}
	return out
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
	p("load counts every owner it serves. The ledger rows are PAPER.md's E and S")
	p("rows. Each has a verdict and the margin that decided it, with no tolerance:")
	p("`holds`, `refuted` (a stated effect the run contradicts) or `off` (a")
	p("stated number the run misses; margin = measured − stated).")
	p("")
	p("| row | claim | verdict | margin | measured |")
	p("| --- | --- | --- | --- | --- |")
	for _, c := range t.Ledger {
		p("| %s | %s | %s | %s | %s |", c.ID, c.Statement, c.Verdict, number(c.Margin, true), c.Measured)
	}
	p("")
	p("**Observed shapes.** No ledger row states these. They are observations of")
	p("this repository, counted as the figure points where each holds, and never")
	p("get a verdict.")
	p("")
	p("| shape | points |")
	p("| --- | --- |")
	for _, c := range t.Shapes {
		p("| %s | %d/%d |", c.Statement, c.Held, c.Of)
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
