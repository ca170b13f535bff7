package bench

// MetricDef names one metric, as BENCHMARK.json lists it.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// EndToEnd are the gated metrics: what a user of the server sees, measured
// on the real binary with tracing off, defined and non-zero on every
// workload, and steady enough on a shared two-core box that ten runs on ten
// seeds stay inside the bound. bench/README.md has the definitions, the
// measured spreads behind the bounds, and the list of user-visible metrics
// that did not qualify and are reported under cmd.xsp-server instead.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_spans_per_s", Unit: "spans/s", Better: "higher", Bound: 0.25},
	{Name: "rss_peak_bytes_per_span", Unit: "B/span", Better: "lower", Bound: 0.25},
}

// PerLayer are the metrics of single layers; the layer is the name's
// prefix and is one of this repository's packages (loadgen is the
// benchmark itself, cmd.xsp-server the real binary seen from outside,
// replica the traced run as a whole). A metric that does not apply to a
// workload reads 0 there.
var PerLayer = []MetricDef{
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.gen_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.gen_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "loadgen.spans", Unit: "count", Better: "higher"},

	{Name: "trace.collector.flush_calls", Unit: "count", Better: "higher"},
	{Name: "trace.collector.encode_busy_s", Unit: "s", Better: "lower"},
	{Name: "trace.collector.post_wait_s", Unit: "s", Better: "lower"},
	{Name: "trace.collector.retries", Unit: "count", Better: "lower"},
	{Name: "trace.collector.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.collector.ack_max_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.codec.encode_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "trace.codec.decode_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "trace.codec.decode_allocs_per_span", Unit: "1/span", Better: "lower"},
	{Name: "trace.codec.wire_bytes_per_span", Unit: "B/span", Better: "lower"},

	{Name: "trace.server.handle_busy_s", Unit: "s", Better: "lower"},
	{Name: "trace.server.posts_202", Unit: "count", Better: "higher"},
	{Name: "trace.server.posts_429", Unit: "count", Better: "lower"},
	{Name: "trace.server.posts_503", Unit: "count", Better: "lower"},
	{Name: "trace.server.dup_acks", Unit: "count", Better: "lower"},

	{Name: "trace.memory.publish_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "trace.memory.heap_bytes_per_span", Unit: "B/span", Better: "lower"},

	{Name: "trace.tap.enqueued", Unit: "count", Better: "higher"},
	{Name: "trace.tap.max_depth", Unit: "count", Better: "lower"},
	{Name: "trace.tap.publish_wait_s", Unit: "s", Better: "lower"},
	{Name: "trace.tap.drain_ms", Unit: "ms", Better: "lower"},

	{Name: "core.stream.feed_calls", Unit: "count", Better: "higher"},
	{Name: "core.stream.feed_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.stream.flush_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.stream.snapshot_calls", Unit: "count", Better: "higher"},
	{Name: "core.stream.snapshot_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.stream.recover_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.stream.heap_bytes_per_span", Unit: "B/span", Better: "lower"},
	{Name: "core.stream.released", Unit: "count", Better: "higher"},
	{Name: "core.stream.stragglers", Unit: "count", Better: "lower"},
	{Name: "core.stream.repaired", Unit: "count", Better: "lower"},
	{Name: "core.stream.degraded_windows", Unit: "count", Better: "lower"},
	{Name: "core.stream.windows_chained", Unit: "count", Better: "lower"},
	{Name: "core.stream.checkpointed", Unit: "count", Better: "higher"},
	{Name: "core.stream.segments", Unit: "count", Better: "lower"},
	{Name: "core.stream.compactions", Unit: "count", Better: "lower"},
	{Name: "core.stream.reopens", Unit: "count", Better: "lower"},
	{Name: "core.stream.live_end", Unit: "count", Better: "lower"},
	{Name: "core.stream.corr_entries_end", Unit: "count", Better: "lower"},

	{Name: "core.tenantset.tenants", Unit: "count", Better: "lower"},

	{Name: "segio.wal_append_bytes", Unit: "B", Better: "lower"},
	{Name: "segio.wal_sync_count", Unit: "count", Better: "lower"},
	{Name: "segio.wal_sync_s", Unit: "s", Better: "lower"},
	{Name: "segio.wal_rotate_count", Unit: "count", Better: "lower"},
	{Name: "segio.wal_rotate_bytes", Unit: "B", Better: "lower"},
	{Name: "segio.seg_write_count", Unit: "count", Better: "lower"},
	{Name: "segio.seg_write_bytes", Unit: "B", Better: "lower"},
	{Name: "segio.seg_sync_s", Unit: "s", Better: "lower"},
	{Name: "segio.seg_removed", Unit: "count", Better: "lower"},
	{Name: "segio.dir_sync_count", Unit: "count", Better: "lower"},
	{Name: "segio.dir_sync_s", Unit: "s", Better: "lower"},
	{Name: "segio.read_bytes", Unit: "B", Better: "lower"},
	{Name: "segio.open_busy_s", Unit: "s", Better: "lower"},
	{Name: "segio.write_amp", Unit: "ratio", Better: "lower"},

	{Name: "analysis.online.observe_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "analysis.online.observe_sampled_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "analysis.online.spans_observed", Unit: "count", Better: "higher"},
	{Name: "analysis.online.snapshot_busy_s", Unit: "s", Better: "lower"},
	{Name: "analysis.online.snapshot_json_bytes", Unit: "B", Better: "lower"},
	{Name: "analysis.online.layer_rows", Unit: "count", Better: "lower"},

	{Name: "cmd.xsp-server.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "cmd.xsp-server.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "cmd.xsp-server.cpu_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "cmd.xsp-server.io_write_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.rss_ready_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.rss_end_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.rss_after_query_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.store_segments", Unit: "count", Better: "lower"},
	{Name: "cmd.xsp-server.store_segment_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.store_wal_bytes", Unit: "B", Better: "lower"},
	{Name: "cmd.xsp-server.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.xsp-server.ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.xsp-server.disk_bytes_per_span", Unit: "B/span", Better: "lower"},
	{Name: "cmd.xsp-server.recover_s", Unit: "s", Better: "lower"},
	{Name: "cmd.xsp-server.query_analysis_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.xsp-server.query_analysis_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.xsp-server.query_correlated_us_per_kspan", Unit: "us/kspan", Better: "lower"},
	{Name: "cmd.xsp-server.ack_samples", Unit: "count", Better: "higher"},
	{Name: "cmd.xsp-server.query_analysis_samples", Unit: "count", Better: "higher"},

	{Name: "replica.ingest_spans_per_s", Unit: "spans/s", Better: "higher"},
	{Name: "replica.vs_binary_ratio", Unit: "ratio", Better: "higher"},
	{Name: "replica.unaccounted_frac", Unit: "ratio", Better: "lower"},
}
