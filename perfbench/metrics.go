package main

// endToEndMetrics are reported by every workload with --trace 0, in
// the order BENCHMARK.json lists them.
var endToEndMetrics = []string{
	"setup_s",
	"peak_ops_s",
	"cpu_us_per_op",
	"mem_peak_mb",
}

// ladderRungs are the public boundaries the layer ladder enters at,
// bottom up.
var ladderRungs = []string{
	"storage.find_by_id",
	"storage.find_range",
	"cluster.exec_read",
	"wire.loopback_read",
	"driver.select_server",
	"cache.hit",
	"driver.read",
	"core.router_read",
	"sharding.mongos_hop",
}

// perLayerFixed are the per-layer metrics every workload reports with
// --trace 1, before the ladder rungs. A layer a workload bypasses
// reports a zero count or share there.
var perLayerFixed = []string{
	"core.secondary_share",
	"core.balance_fraction_pct_mean",
	"core.decisions.increase",
	"core.decisions.decrease",
	"core.decisions.hold",
	"core.decisions.explore",
	"core.decisions.gated",
	"core.gate_trips",
	"client.self_us_p50",
	"driver.conn_exec_us_p50",
	"driver.conn_exec_us_p99",
	"driver.fallback_retries",
	"driver.no_eligible_server",
	"cache.hit_ratio",
	"cache.evictions_per_kop",
	"cache.invalidations_per_kop",
	"cache.expired_per_kop",
	"cache.fills_collapsed_per_kop",
	"cache.bytes",
	"wire.view_op_us_p50",
	"wire.view_op_us_p99",
	"wire.server_us_p50.find_by_id",
	"wire.server_us_p99.find_by_id",
	"wire.server_us_p50.write_batch",
	"wire.transport_us_p50",
	"wire.bytes_per_op",
	"wire.frames_per_op",
	"wire.requests_shed",
	"wire.decode_errors",
	"cluster.cpu_queue_wait_us_p99",
	"cluster.commit_latency_us_p50",
	"cluster.commit_batch_txns_mean",
	"cluster.getmore_latency_us_p99",
	"cluster.superseded_read_frac",
	"sharding.scatter_partial",
	"sharding.stale_chunk_retries",
	"process.gc_cycles",
	"process.gc_pause_ms_total",
	"loadgen.late_us_p99",
	"trace.untraced_peak_ops_s",
	"trace.traced_peak_ops_s",
	"trace.overhead_frac",
}

// perLayerMetrics lists every --trace 1 metric in BENCHMARK.json order.
func perLayerMetrics() []string {
	out := append([]string(nil), perLayerFixed...)
	for _, r := range ladderRungs {
		out = append(out, r+"_ns", r+"_allocs")
	}
	return out
}
