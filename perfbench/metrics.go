package main

// metricDef names one reported metric and its unit; the tables below
// are the benchmark's contract and must match BENCHMARK.json (pinned by
// TestTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// defaultSeed and heldOutSeed both pass every correctness gate; the
// pinned digests in pins.go are recorded for them.
const (
	defaultSeed = 1
	heldOutSeed = 9
)

// endToEnd is reported by every untraced run. The metrics are defined
// on every workload; what "primary" and "secondary" time is per
// workload is in README.md ("Metric names").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"primary_ms", "ms", "lower"},
	{"primary_ms_tail", "ms", "lower"},
	{"secondary_ms", "ms", "lower"},
	{"secondary_ms_tail", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"label_accuracy", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported by every traced run. A layer the workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"mathx.entropysum_ns_per_elem", "ns", "lower"},
	{"mathx.bytes_per_select", "B", "lower"},
	{"taskselect.evals_per_select.approx", "count", "lower"},
	{"taskselect.evals_per_select.opt", "count", "lower"},
	{"taskselect.condentropy_us", "us", "lower"},
	{"taskselect.select_us.uniform", "us", "lower"},
	{"taskselect.select_us.costaware", "us", "lower"},
	{"taskselect.evals_per_round.uniform", "count", "lower"},
	{"taskselect.evals_per_round.costaware", "count", "lower"},
	{"taskselect.evals_per_round.session", "count", "lower"},
	{"taskselect.reuse_ratio", "ratio", "higher"},
	{"belief.update_us", "us", "lower"},
	{"aggregate.init_ms", "ms", "lower"},
	{"pipeline.round_us.uniform", "us", "lower"},
	{"pipeline.round_us.costaware", "us", "lower"},
	{"pipeline.answers_us", "us", "lower"},
	{"pipeline.self_us", "us", "lower"},
	{"server.create_ms", "ms", "lower"},
	{"server.answer_us.memory", "us", "lower"},
	{"server.answer_us.journaled", "us", "lower"},
	{"server.queries_us", "us", "lower"},
	{"server.round_gap_us", "us", "lower"},
	{"server.admit_us", "us", "lower"},
	{"server.http.queries_us", "us", "lower"},
	{"server.http.status_us", "us", "lower"},
	{"server.http.tasks_us", "us", "lower"},
	{"server.http.requests_per_ack", "count", "lower"},
	{"server.http.ack_overhead_us", "us", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.sync_us", "us", "lower"},
	{"journal.reset_ms", "ms", "lower"},
	{"journal.write_bytes_per_ack", "B", "lower"},
	{"cluster.owner_ns", "ns", "lower"},
	{"cluster.redirect_share", "ratio", "lower"},
	{"cluster.redirected_ack_us", "us", "lower"},
	{"cluster.direct_ack_us", "us", "lower"},
	{"proc.server_cpu_ms_per_kack", "ms", "lower"},
	{"proc.loadgen_cpu_share", "ratio", "lower"},
	{"proc.alloc_kb_per_run", "KB", "lower"},
	{"proc.gc_per_run", "count", "lower"},
	{"proc.alloc_kb_per_select", "KB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"harness.failed_frac", "ratio", "lower"},
}
