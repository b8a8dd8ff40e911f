package main

// metricSpec describes one reported metric. The same names, units and
// directions are listed in BENCHMARK.json (a self-test keeps the two in
// step); Moves records, for a per-layer metric, which end-to-end metric
// on which workload it should move.
type metricSpec struct {
	Name, Unit, Better string
	Moves              string
}

// endToEnd are the metrics a user of MIDAS sees, from untraced runs.
// Failures and wrong answers are not metrics here (they are 0 on a
// healthy build): they are the result's "failed" and "correct" fields,
// and the record line carries failed_share and wrong_answers.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

const (
	movesGF    = "latency_p50_ms/cpu_ms_per_op on seq-path; less on dist-path; serve-mix misses only"
	movesMLD   = "latency_p50_ms/cpu_ms_per_op on seq-path and the DP share of serve-mix; no change on dist-path"
	movesAlloc = "peak_rss_mb on seq-path and serve-mix"
	movesCore  = "latency_p50_ms/ops_per_s on dist-path only"
	movesComm  = "latency_p50_ms on dist-path only"
	movesPart  = "comm.bytes_per_op, and through it latency_p50_ms on dist-path"
	movesGraph = "setup_s on every workload"
	movesServe = "latency_p50_ms/ops_per_s on serve-mix only"
	movesStore = "setup_s and serve.register_ms_p50 on serve-mix"
	movesObs   = "none: the cost of tracing itself, per workload"
)

// perLayer are the per-layer metrics, from a separate traced run. A
// workload that bypasses a layer reports 0 for its metrics.
var perLayer = []metricSpec{
	{"gf.mul_table16_gbps", "GB/s", "higher", movesGF},
	{"gf.hadamard_gbps", "GB/s", "higher", movesGF},
	{"gf.computed_bytes_per_op", "bytes", "lower", movesGF},

	{"mld.dp_ops_per_op", "count", "lower", movesMLD},
	{"mld.phases_per_op", "count", "lower", movesMLD},
	{"mld.levels_per_op", "count", "lower", movesMLD},
	{"mld.rounds_per_op", "count", "lower", movesMLD},
	{"mld.cells_skipped_per_op", "count", "higher", movesMLD},
	{"mld.phase_ms_p50", "ms", "lower", movesMLD},
	{"mld.level_self_ms_per_op", "ms", "lower", movesMLD},
	{"mld.outside_levels_ms_per_op", "ms", "lower", movesMLD},
	{"mld.dp_ops_per_busy_s", "1/s", "higher", movesMLD},
	{"mld.allocs_per_op", "count", "lower", movesAlloc},
	{"mld.alloc_bytes_per_op", "bytes", "lower", movesAlloc},

	{"core.rank_skew_ms", "ms", "lower", movesCore},
	{"core.phase_ms_p50", "ms", "lower", movesCore},
	{"core.scaling_efficiency", "ratio", "higher", movesCore},
	{"core.modeled_over_measured", "ratio", "higher", "none: checks the alpha-beta model against dist-path wall time"},

	{"comm.msgs_per_op", "count", "lower", movesComm},
	{"comm.bytes_per_op", "bytes", "lower", movesComm},
	{"comm.collectives_per_op", "count", "lower", movesComm},

	{"partition.build_ms", "ms", "lower", movesPart},
	{"partition.edge_cut_share", "ratio", "lower", movesPart},

	{"graph.build_ms", "ms", "lower", movesGraph},
	{"graph.digest_ms", "ms", "lower", movesGraph},

	{"serve.path_p50_ms", "ms", "lower", movesServe},
	{"serve.tree_p50_ms", "ms", "lower", movesServe},
	{"serve.scanstat_p50_ms", "ms", "lower", movesServe},
	{"serve.motif_p50_ms", "ms", "lower", movesServe},
	{"serve.queue_ms_p50", "ms", "lower", movesServe},
	{"serve.batch_assembly_ms_p50", "ms", "lower", movesServe},
	{"serve.dp_ms_p50", "ms", "lower", movesServe},
	{"serve.outside_dp_ms_p50", "ms", "lower", movesServe},
	{"serve.cache_hit_share", "ratio", "higher", movesServe},
	{"serve.singleflight_share", "ratio", "higher", movesServe},
	{"serve.batch_occupancy", "lanes", "higher", movesServe},
	{"serve.rejected", "count", "lower", movesServe},
	{"serve.register_ms_p50", "ms", "lower", movesServe},

	{"store.cold_start_ms", "ms", "lower", movesStore},
	{"store.hits", "count", "higher", movesStore},
	{"store.misses", "count", "lower", movesStore},
	{"store.mapped_mb", "MB", "lower", movesStore},

	{"obs.trace_overhead_share", "ratio", "lower", movesObs},
}
