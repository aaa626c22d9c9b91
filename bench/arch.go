package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// archWorkload compares the three storage architectures on one dataset
// synthesized in set-up. The timed region is ring construction, successor
// lists, social re-ranking, per-(owner, reader) lookups and the
// whole-population placement pass, plus the same sweep engine paper_matrix
// uses, driven through dht.Placement.Select instead of the friend policies.
type archWorkload struct {
	users int
	seed  int64
	n     int
	ds    *trace.Dataset
}

var archModes = []replica.Mode{replica.ConRep, replica.UnconRep}

func newArchCompare(seed int64, quick bool) *archWorkload {
	users, n := trace.PaperFacebookUsers, 28
	if quick {
		users, n = 2000, 2
	}
	return &archWorkload{users: users, seed: seed, n: n}
}

func (w *archWorkload) iterations() int { return w.n }

func (w *archWorkload) setup() error {
	d := datasetSpec("facebook", w.users)
	ds, err := trace.SynthesizeCalibrated(d.Name, d.Users, d.Seed, d.MinActivity)
	w.ds = ds
	return err
}

func (w *archWorkload) config(mode replica.Mode) core.ArchConfig {
	return core.ArchConfig{
		Dataset:    w.ds,
		Model:      onlinetime.Sporadic{},
		Mode:       mode,
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    3,
		Seed:       w.seed,
	}
}

// iterate runs the comparison in both placement modes; one operation is one
// architecture row.
func (w *archWorkload) iterate(t *tracer) (iterResult, error) {
	var table strings.Builder
	r := iterResult{ops: len(archModes) * len(dht.ArchNames())}
	for _, mode := range archModes {
		var rows []core.ArchRow
		var err error
		t.do("core.arch_comparison", func() { rows, err = core.RunArchComparison(w.config(mode)) })
		if err != nil {
			return r, err
		}
		for _, row := range rows {
			if !renderArchRow(&table, mode, row) {
				r.failed++
			}
		}
		r.failed += len(dht.ArchNames()) - len(rows)
	}
	r.hash, r.size = sha([]byte(table.String())), table.Len()
	return r, nil
}

// renderArchRow appends the row in a fixed format (the canonical output the
// pinned hash covers) and reports whether its values are in range.
func renderArchRow(b *strings.Builder, mode replica.Mode, row core.ArchRow) bool {
	ok := row.Sweep != nil && row.Sweep.Users > 0 && row.LoadGini >= 0 && row.LoadGini <= 1
	fmt.Fprintf(b, "%s %s lookups=%d hops=%.9f/%d load=%.9f/%.0f/%.9f/%.9f\n",
		mode, row.Architecture, row.Lookup.Lookups, row.Lookup.MeanHops, row.Lookup.MaxHops,
		row.LoadMean, row.LoadMax, row.LoadCV, row.LoadGini)
	if row.Sweep == nil {
		return false
	}
	for p, name := range row.Sweep.Policies {
		for di := range row.Sweep.Degrees {
			fmt.Fprintf(b, " %s/%d", name, di)
			for _, metric := range []core.Metric{core.MetricAvailability, core.MetricAoDTime, core.MetricAoDActivity, core.MetricDelayHours} {
				v := row.Sweep.Value(p, di, metric)
				fmt.Fprintf(b, " %.12g", v)
				if metric != core.MetricDelayHours && !(v >= 0 && v <= 1) {
					ok = false
				}
			}
			b.WriteByte('\n')
		}
	}
	return ok
}

func (w *archWorkload) traced(t *tracer, m map[string]float64) (iterResult, error) {
	var r iterResult
	var err error
	before := obs.Default.Counters()
	t.do(wholeSpan, func() { r, err = w.iterate(t) })
	if err != nil {
		return r, err
	}
	counterDeltas(m, before, "onlinetime.rows_built", "core.sweep_users", "core.sweep_chunks")
	return r, w.replay(t, m)
}

// replay makes, from this file, the layer calls RunArchComparison is composed
// of: ring build, one table per repetition, one sweep per architecture and
// mode, the reader lookups, and the whole-population placement pass with each
// architecture's primary policy.
func (w *archWorkload) replay(t *tracer, m map[string]float64) error {
	ds, workers := w.ds, runtime.NumCPU()
	var ring *dht.Ring
	var err error
	t.do("dht.build_ring", func() { ring, err = dht.BuildRing(ds.NumUsers(), dht.Config{}) })
	if err != nil {
		return err
	}
	owners := ds.Graph.UsersWithDegree(10)
	hops, lookups, tableBytes := 0, 0, 0
	for _, mode := range archModes {
		tables := make([]*onlinetime.Table, 3)
		for rep := range tables {
			t.do("onlinetime.build.sporadic", func() {
				tables[rep] = onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, w.seed+int64(rep), workers)
			})
			tableBytes += tables[rep].MemoryBytes()
		}
		for _, name := range dht.ArchNames() {
			arch, err := dht.NewArchitecture(name, ring, ds.Graph, nil)
			if err != nil {
				return err
			}
			policies := arch.Policies()
			t.do("core.sweep", func() {
				_, err = core.Run(core.Config{
					Dataset:    ds,
					Model:      onlinetime.Sporadic{},
					Mode:       mode,
					Policies:   policies,
					MaxDegree:  10,
					UserDegree: 10,
					Repeats:    3,
					Seed:       w.seed,
					Workers:    workers,
					Schedules:  tables,
				})
			})
			if err != nil {
				return err
			}
			t.do("placement."+name, func() { placeAll(ds, policies[0], tables[0], mode) })
			if name == dht.ArchFriendReplica {
				continue
			}
			t.do("dht.route", func() {
				for _, u := range owners {
					key := ring.Key(u)
					for _, f := range ds.Graph.Neighbors(u) {
						hops += ring.HopCount(f, key)
						lookups++
					}
				}
			})
		}
	}
	m["onlinetime.table_mb"] = float64(tableBytes) / 1e6
	m["dht.lookups"] = float64(lookups)
	m["dht.mean_hops"] = float64(hops) / float64(lookups)
	return nil
}

// placeAll selects replica hosts for every profile at the full budget, as
// the comparison's load-balance pass does. Only policies that read nothing
// but the dense schedules are supported, which covers MaxAv and both DHT
// placements.
func placeAll(ds *trace.Dataset, p replica.Policy, table *onlinetime.Table, mode replica.Mode) {
	bitmaps := table.Bitmaps()
	for u := 0; u < ds.NumUsers(); u++ {
		uid := socialgraph.UserID(u)
		probeSink += len(p.Select(replica.Input{
			Owner:      uid,
			Candidates: ds.Graph.Neighbors(uid),
			Bitmaps:    bitmaps,
			Mode:       mode,
			Budget:     10,
		}, nil))
	}
}

func (w *archWorkload) probes(t *tracer, split, m map[string]float64) error {
	ds := w.ds
	calls := float64(len(archModes) * ds.NumUsers())
	build, sweep := split["onlinetime.build.sporadic"], split["core.sweep"]
	m["dht.build_ring_s"] = split["dht.build_ring"]
	m["dht.route_ns"] = split["dht.route"] * 1e9 / m["dht.lookups"]
	m["dht.placement_select_us.random"] = split["placement."+dht.ArchRandomDHT] * 1e6 / calls
	m["dht.placement_select_us.social"] = split["placement."+dht.ArchSocialDHT] * 1e6 / calls
	m["onlinetime.build_s"] = build
	m["onlinetime.ns_per_row.sporadic"] = build * 1e9 / m["onlinetime.rows_built"]
	m["core.sweep_s"] = sweep
	m["core.us_per_sweep_user"] = sweep * 1e6 / m["core.sweep_users"]

	ring, err := dht.BuildRing(ds.NumUsers(), dht.Config{})
	if err != nil {
		return err
	}
	const ops = 200_000
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		probeSink += len(ring.SuccessorsOf(socialgraph.UserID(i%ds.NumUsers()), 40))
	}
	m["dht.successors_ns"] = perOp(t0, ops, time.Nanosecond)
	simProbes(ds, onlinetime.ComputeTable(onlinetime.Sporadic{}, ds, w.seed, runtime.NumCPU()), m)
	return nil
}
