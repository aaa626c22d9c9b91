package main

import (
	"fmt"
	"slices"
)

// metricDef describes one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. BENCHMARK.json repeats this table and the tests hold the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadNames fixes the run order of the suite.
var workloadNames = []string{"paper_matrix", "large_cell", "arch_compare", "node_sync"}

// endToEnd lists what a user of the simulator or the node sees. The bounds
// come from spreads measured on the 2-vCPU reference box (README.md).
var endToEnd = []metricDef{
	{"iter_wall_s", "s", "lower", 0.25},
	{"iter_cpu_s", "s", "lower", 0.25},
	{"alloc_mb_per_iter", "MB", "lower", 0.07},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// perLayer lists every traced metric. A traced run prints all of them; one
// reads 0 on a workload whose iteration never enters that layer. Counts are
// listed as "lower" because for fixed inputs a smaller count is less work.
var perLayer = slices.Concat(
	lower("s", "trace.synthesize_s", "trace.filter_s", "socialgraph.generate_s"),
	lower("count", "trace.activities_generated", "trace.users_kept"),
	lower("ns", "trace.ns_per_activity"),
	lower("MB", "trace.dataset_mb"),

	lower("s", "onlinetime.build_s"),
	lower("count", "onlinetime.rows_built"),
	lower("ns", "onlinetime.ns_per_row.sporadic", "onlinetime.ns_per_row.fixed", "onlinetime.ns_per_row.random"),
	lower("MB", "onlinetime.table_mb"),

	lower("s", "core.sweep_s"),
	lower("count", "core.sweep_users", "core.sweep_chunks"),
	lower("us", "core.us_per_sweep_user", "replica.maxav_select_us", "metrics.delay_calc_us"),
	lower("ns", "interval.or_count_ns", "interval.max_gap_ns"),

	lower("s", "dht.build_ring_s"),
	lower("ns", "dht.route_ns", "dht.successors_ns"),
	lower("count", "dht.lookups", "dht.mean_hops"),
	lower("us", "dht.placement_select_us.random", "dht.placement_select_us.social"),

	lower("s", "harness.run_s", "harness.self_s"),
	higher("count", "harness.schedule_cache_hits"),
	lower("ms", "harness.manifest_encode_ms", "harness.checkpoint_overhead_ms"),
	lower("bytes", "harness.manifest_bytes"),

	lower("ns", "store.author_ns", "store.apply_ns"),
	lower("us", "store.missing_from_us", "store.posts_read_us"),
	lower("ms", "store.save_ms", "store.load_ms"),
	lower("bytes", "store.snapshot_bytes"),

	lower("ms", "wire.sync_round_ms_p50", "wire.sync_round_ms_p95", "feed.merge_ms"),
	lower("count", "wire.sync_rounds", "wire.errors", "feed.items_merged"),
	lower("bytes", "wire.bytes_per_post"),
	higher("1/s", "wire.posts_per_s"),
	lower("ns", "vclock.merge_ns"),

	lower("count", "rt.gc_cycles_per_iter"),
	lower("ms", "rt.gc_pause_ms_per_iter"),
	lower("s", "rt.cold_iter_s", "rt.iter_wall_min_s"),
	lower("ratio", "rt.trace_overhead_ratio"),
)

// exactCounts are the per-layer metrics that must repeat exactly between two
// runs with the same seed; the A/A mode compares them.
var exactCounts = []string{
	"trace.activities_generated", "trace.users_kept", "onlinetime.rows_built",
	"core.sweep_users", "core.sweep_chunks", "harness.schedule_cache_hits",
	"harness.manifest_bytes", "dht.lookups", "dht.mean_hops",
	"wire.bytes_per_post", "wire.sync_rounds", "feed.items_merged", "store.snapshot_bytes",
}

// complete checks that got holds exactly the metrics of defs and fills in
// their units.
func complete(got map[string]float64, defs []metricDef) (map[string]measurement, error) {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = measurement{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}
