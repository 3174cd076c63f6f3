package main

// The metric tables. BENCHMARK.json at the repository root carries the
// same names, units, directions and bounds; TestBenchmarkJSONMatches
// keeps the two from drifting.

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd is what a client of pash or pash-serve sees. Every workload
// reports all eight: a pass is each leg once (or, for serve-mixed,
// passRequests requests on each of W connections), an operation is one
// pash process or one HTTP request, and each value is the median over
// the run's passes of that pass's figure.
//
// The bounds sit at the contract's ceiling because two sets of ten runs
// of one commit on the 2-core shared host this was written on differed
// by up to 20% (README.md, "Sizing and steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"seq_wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
}

// perLayer is the subset of traced-run rows every workload reports.
// Rows scoped to one leg (cli.leg_wall_s.<leg>, trace.unattributed_
// share.<leg>, …) exist only for the workload that has the leg, so they
// go to result.json and the printed table but not into this list.
var perLayer = []metricDef{
	{name: "cli.startup_ms", unit: "ms", better: "lower"},
	{name: "cli.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "pash.run_wall_s", unit: "s", better: "lower"},
	{name: "pash.regions", unit: "count", better: "lower"},
	{name: "pash.plan_hits", unit: "count", better: "higher"},
	{name: "pash.plan_misses", unit: "count", better: "lower"},
	{name: "pash.bytes_moved", unit: "bytes", better: "lower"},
	{name: "pash.chunks_moved", unit: "count", better: "lower"},

	{name: "shell.parse_us", unit: "us", better: "lower"},
	{name: "shell.parse_mb_s", unit: "MB/s", better: "higher"},
	{name: "shell.expand_us", unit: "us", better: "lower"},

	{name: "core.plan_miss_us", unit: "us", better: "lower"},
	{name: "core.plan_hit_us", unit: "us", better: "lower"},
	{name: "core.optimize_us", unit: "us", better: "lower"},
	{name: "dfg.clone_us", unit: "us", better: "lower"},
	{name: "dfg.distribute_us", unit: "us", better: "lower"},
	{name: "dfg.nodes_after", unit: "count", better: "lower"},

	{name: "runtime.execute_wall_s", unit: "s", better: "lower"},
	{name: "runtime.node_active_s", unit: "s", better: "lower"},
	{name: "runtime.node_blocked_s", unit: "s", better: "lower"},
	{name: "runtime.split_active_s", unit: "s", better: "lower"},
	{name: "runtime.merge_active_s", unit: "s", better: "lower"},
	{name: "runtime.agg_active_s", unit: "s", better: "lower"},
	{name: "runtime.fused_stage_active_s.tr", unit: "s", better: "lower"},
	{name: "runtime.fused_stage_active_s.grep", unit: "s", better: "lower"},
	{name: "runtime.fused_stage_active_s.cut", unit: "s", better: "lower"},
	{name: "runtime.fused_stage_active_s.sed", unit: "s", better: "lower"},
	{name: "runtime.handoff_mb_s", unit: "MB/s", better: "higher"},
	{name: "runtime.execute_fixed_us", unit: "us", better: "lower"},
	{name: "runtime.admit_ns", unit: "ns", better: "lower"},
	{name: "runtime.acquire_width_ns", unit: "ns", better: "lower"},

	{name: "commands.memcpy_mb_s", unit: "MB/s", better: "higher"},
	{name: "commands.kernel_mb_s.tr", unit: "MB/s", better: "higher"},
	{name: "commands.kernel_mb_s.grep-fixed", unit: "MB/s", better: "higher"},
	{name: "commands.kernel_mb_s.grep-regex", unit: "MB/s", better: "higher"},
	{name: "commands.kernel_mb_s.cut", unit: "MB/s", better: "higher"},
	{name: "commands.kernel_mb_s.sed", unit: "MB/s", better: "higher"},
	{name: "commands.tr_cs_mb_s", unit: "MB/s", better: "higher"},
	{name: "commands.sort_mb_s", unit: "MB/s", better: "higher"},
	{name: "commands.wc_mb_s", unit: "MB/s", better: "higher"},

	{name: "agg.sort_merge_mb_s", unit: "MB/s", better: "higher"},
	{name: "agg.uniq_c_mb_s", unit: "MB/s", better: "higher"},
	{name: "agg.wc_us", unit: "us", better: "lower"},

	{name: "dist.wire_bytes_raw", unit: "bytes", better: "lower"},
	{name: "dist.wire_bytes_sent", unit: "bytes", better: "lower"},
	{name: "dist.worker_plan_hits", unit: "count", better: "higher"},
	{name: "dist.worker_plan_misses", unit: "count", better: "lower"},
	{name: "dist.retries", unit: "count", better: "lower"},
	{name: "dist.failovers", unit: "count", better: "lower"},

	{name: "serve.handler_us.tiny", unit: "us", better: "lower"},
	{name: "serve.socket_overhead_us", unit: "us", better: "lower"},
	{name: "serve.tcp_overhead_us", unit: "us", better: "lower"},
	{name: "serve.latency_p50_ms.tiny", unit: "ms", better: "lower"},
	{name: "serve.latency_p50_ms.file", unit: "ms", better: "lower"},
	{name: "serve.latency_p50_ms.body", unit: "ms", better: "lower"},
	{name: "serve.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.sheds", unit: "count", better: "lower"},
	{name: "serve.plan_cache_hit_share", unit: "share", better: "higher"},

	{name: "stream.windows", unit: "count", better: "lower"},
	{name: "stream.window_service_ms_p50", unit: "ms", better: "lower"},
	{name: "stream.runwindow_ms", unit: "ms", better: "lower"},
	{name: "stream.combine_us", unit: "us", better: "lower"},
	{name: "stream.tax_vs_batch", unit: "ratio", better: "lower"},

	{name: "meter.admit_ns", unit: "ns", better: "lower"},
	{name: "meter.commits", unit: "count", better: "lower"},

	{name: "trace.unattributed_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}
