package main

// metricDef names one reported metric and its unit. BENCHMARK.json repeats
// these lists (with direction and bound); TestBenchmarkJSONMatchesSpec
// keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An "op" is one unit of the workload's closed
// loop: a /match on the read workloads, one mutate+match round on
// ingest-mixed, one library call on kernel-large (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_s", "1/s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run (--trace 1).
// Layers are this repository's packages; a layer a workload's deployment
// does not contain reads 0 there.
var perLayer = []metricDef{
	{"graph.parse_us_p50", "us"},

	{"prefilter.check_us_p50", "us"},
	{"prefilter.checks", "count"},
	{"prefilter.rejects", "count"},
	{"prefilter.false_admits", "count"},

	{"server.admission_ms_p50", "ms"},
	{"server.plan_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.total_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.shed_429", "count"},
	{"server.timeouts", "count"},

	{"core.match_us_p50", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage", "ratio"},

	{"ccsr.read_us_p50", "us"},
	{"ccsr.clusters_read", "count"},
	{"ccsr.view_bytes", "count"},
	{"ccsr.read_share", "ratio"},

	{"plan.optimize_us_p50", "us"},
	{"plan.sce_vertex_ratio", "ratio"},
	{"plan.optimize_ms_n2000", "ms"},

	{"exec.run_us_p50", "us"},
	{"exec.steps", "count"},
	{"exec.candidate_builds", "count"},
	{"exec.candidate_reuses", "count"},
	{"exec.reuse_ratio", "ratio"},
	{"exec.embeddings", "count"},
	{"exec.steps_per_embedding", "ratio"},

	{"live.mutate_ms_p50", "ms"},
	{"live.apply_ms_p50", "ms"},
	{"live.wal_append_us_p50", "us"},
	{"live.wal_fsync_us_p50", "us"},
	{"live.signature_us_p50", "us"},
	{"live.resume_log_us_p50", "us"},
	{"live.checkpoint_ms_p50", "ms"},
	{"live.checkpoints", "count"},
	{"live.fsyncs", "count"},
	{"live.wal_bytes_per_mutation", "ratio"},
	{"live.open_replay_ms", "ms"},

	{"delta.new_embeddings_us_p50", "us"},
	{"delta.deltas", "count"},
	{"delta.retractions", "count"},

	{"shard.match_ms_p50", "ms"},
	{"shard.scatter_ms_p50", "ms"},
	{"shard.local_ms_p50", "ms"},
	{"shard.join_ms_p50", "ms"},
	{"shard.partials", "count"},
	{"shard.join_candidates", "count"},
	{"shard.join_useful_ratio", "ratio"},
	{"shard.decomp_cache_hit_ratio", "ratio"},
	{"shard.slowdown_x", "ratio"},
	{"shard.enumerate_ms_p50", "ms"},

	{"client.op_p95_ms", "ms"},
	{"client.match_p50_ms", "ms"},
	{"client.match_p99_ms", "ms"},
	{"client.mutate_p50_ms", "ms"},
	{"client.mutate_p95_ms", "ms"},
	{"client.mutate_p99_ms", "ms"},
	{"client.mutate_ops_s", "1/s"},
	{"client.delta_p50_ms", "ms"},
	{"client.recovery_s", "s"},
	{"client.samples", "count"},
	{"client.rss_peak_mb", "MB"},
}

// workloadDef is one benchmark workload: its name, the reason it exists
// (BENCHMARK.json carries the same sentence), and its two runs.
type workloadDef struct {
	name string
	why  string
	// e2e measures the end-to-end metrics against a real csced (or the
	// public library API); traced replays the same request sequence in
	// process with a span around each layer call.
	e2e    func(*env) (*result, error)
	traced func(*env) (*result, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:   "read-selective",
			why:    "64 dense/sparse patterns with 1-100 embeddings on Human: parse, prefilter, admission, plan-cache hit and CCSR read do nearly all the work",
			e2e:    readSelective.e2e,
			traced: readSelective.traced,
		},
		{
			name:   "read-enumerate",
			why:    "16 sparse patterns that each stream 10000 embeddings on Human: exec and the per-embedding write+flush dominate, CCSR read and plan are bypassed",
			e2e:    readEnumerate.e2e,
			traced: readEnumerate.traced,
		},
		{
			name:   "ingest-mixed",
			why:    "durable csced on Yeast: each op is a 32-mutation fsynced batch then a match on the new epoch (plan-cache miss), with a subscription, checkpoints and a SIGKILL restart",
			e2e:    ingestE2E,
			traced: ingestTraced,
		},
		{
			name:   "sharded-read",
			why:    "K=4 sharded csced on Yeast, selective pool: scatter, per-shard local match and cross-shard join do the work and exist in no other workload",
			e2e:    shardedRead.e2e,
			traced: shardedRead.traced,
		},
		{
			name:   "kernel-large",
			why:    "no HTTP: library Engine.Match on Patent, full factorized counting, all variants, D8-D64 and S8 tasks plus plan-only S64-S2000 - the paper's regime that /match cannot reach",
			e2e:    kernelE2E,
			traced: kernelTraced,
		},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
