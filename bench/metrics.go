package main

// metricDef is one row of BENCHMARK.json: end-to-end metrics carry a
// regression bound (the share of the parent's median by which the
// metric may worsen), per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) higherIsBetter() bool { return m.Better == "higher" }

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDefs must match BENCHMARK.json (TestBenchmarkJSONMatchesTables).
var workloadDefs = []workloadDef{
	{"campaign-local", "the paper's core loop in one process: substrate (netsim/websim/TLS), scanner, fetcher and features do nearly all the work, store and wire almost none"},
	{"campaign-fleet", "the same rounds through the cloudapi TCP wire, coord submit/merge and colstore: the distribution tax dominates, a substrate gain shrinks to its small share here"},
	{"store-mixed", "the store layer alone on a seeded synthetic campaign, writes beside reads: colstore ingest, cold History hits and misses, full scans, digest; bypasses scanner/fetcher/wire"},
	{"analyse", "carto, clustering and the analysis suite over a campaign collected in set-up onto colstore: segment decode and rewrite dominate; the no-change workload for substrate and wire work"},
}

// endToEndDefs are reported by every workload; what each slot measures
// on each workload is documented in bench/README.md.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_record", "count", "lower", 0.2},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"bytes_per_record", "B", "lower", 0.2},
}

// extraDefs are workload-specific readings printed and written beside
// the end-to-end set but not part of the contract line: the contract
// wants every end-to-end metric from every workload, and these exist on
// one workload only.
var extraDefs = []metricDef{
	{Name: "digest_ms", Unit: "ms", Better: "lower"},
	{Name: "reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "history_hit_tail_pct", Unit: "%", Better: "higher"},
	{Name: "history_hit_tail_us", Unit: "us", Better: "lower"},
	{Name: "history_miss_us", Unit: "us", Better: "lower"},
	{Name: "history_miss_outrange_us", Unit: "us", Better: "lower"},
	{Name: "scan_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "carto_s", Unit: "s", Better: "lower"},
	{Name: "cluster_s", Unit: "s", Better: "lower"},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayerDefs are what the traced pass reports, named <module>.<metric>.
var perLayerDefs = []metricDef{
	// Staged replay of a campaign-local round (per replayed round).
	layer("cloudapi.set_day_ms", "ms", "lower"),
	layer("scanner.scan_s", "s", "lower"),
	layer("scanner.ips_per_s", "1/s", "higher"),
	layer("scanner.probes", "count", "lower"),
	layer("scanner.responsive_ratio", "ratio", "higher"),
	layer("scanner.allocs_per_ip", "count", "lower"),
	layer("netsim.dials", "count", "lower"),
	layer("netsim.dial_us_mean", "us", "lower"),
	layer("fetcher.exchange_s", "s", "lower"),
	layer("fetcher.exchange_us_p50", "us", "lower"),
	layer("fetcher.exchange_us_p95", "us", "lower"),
	layer("fetcher.errors", "count", "lower"),
	layer("fetcher.robots_denied", "count", "lower"),
	layer("fetcher.body_bytes", "B", "lower"),
	layer("fetcher.allocs_per_page", "count", "lower"),
	layer("features.from_page_s", "s", "lower"),
	layer("features.allocs_per_page", "count", "lower"),
	layer("store.put_batch_ns_per_record", "ns", "lower"),
	layer("store.end_round_ms", "ms", "lower"),
	layer("replay.accounted_share", "ratio", "higher"),
	layer("replay.vs_pipelined_ratio", "ratio", "lower"),
	// Micro-loops on inputs sampled from the replay.
	layer("cloudsim.state_at_ns", "ns", "lower"),
	layer("cloudsim.state_at_allocs", "count", "lower"),
	layer("netsim.dial_open_ns", "ns", "lower"),
	layer("netsim.dial_open_allocs", "count", "lower"),
	layer("netsim.dial_closed_ns", "ns", "lower"),
	layer("netsim.dial_closed_allocs", "count", "lower"),
	layer("netsim.http_get_us", "us", "lower"),
	layer("netsim.https_get_us", "us", "lower"),
	layer("netsim.get_allocs", "count", "lower"),
	layer("websim.render_page_us", "us", "lower"),
	layer("websim.render_page_allocs", "count", "lower"),
	layer("scanner.probe_once_us", "us", "lower"),
	layer("scanner.probe_once_allocs", "count", "lower"),
	layer("fetcher.fetch_ip_us", "us", "lower"),
	layer("fetcher.fetch_ip_allocs", "count", "lower"),
	layer("fetcher.substrate_share", "ratio", "lower"),
	layer("htmlparse.parse_us", "us", "lower"),
	layer("htmlparse.parse_allocs", "count", "lower"),
	layer("simhash.hash_us", "us", "lower"),
	layer("simhash.hash_allocs", "count", "lower"),
	// The distribution tax.
	layer("cloudapi.wire_set_day_ms", "ms", "lower"),
	layer("cloudapi.wire_dial_open_us", "us", "lower"),
	layer("cloudapi.wire_dial_open_allocs", "count", "lower"),
	layer("cloudapi.wire_dial_closed_us", "us", "lower"),
	layer("cloudapi.wire_dial_closed_allocs", "count", "lower"),
	layer("cloudapi.wire_http_get_us", "us", "lower"),
	layer("cloudapi.wire_http_get_allocs", "count", "lower"),
	layer("cloudapi.wire_tax_ratio", "ratio", "lower"),
	layer("core.run_shard_s", "s", "lower"),
	layer("coord.merge_ms", "ms", "lower"),
	layer("coord.tax_ratio", "ratio", "lower"),
	layer("coord.shards_assigned", "count", "lower"),
	layer("coord.shards_reassigned", "count", "lower"),
	layer("coord.leases_expired", "count", "lower"),
	// Storage engines, one call at a time.
	layer("colstore.append_ms_per_round", "ms", "lower"),
	layer("colstore.open_ms", "ms", "lower"),
	layer("colstore.history_hit_us_p50", "us", "lower"),
	layer("colstore.history_hot_us_p50", "us", "lower"),
	layer("colstore.history_miss_inrange_us_p50", "us", "lower"),
	layer("colstore.history_miss_outrange_us_p50", "us", "lower"),
	layer("colstore.records_ms_per_round", "ms", "lower"),
	layer("colstore.rewrite_ms_per_round", "ms", "lower"),
	layer("colstore.bytes_per_record", "B", "lower"),
	layer("store.mem_put_batch_ns_per_record", "ns", "lower"),
	layer("store.mem_end_round_ms", "ms", "lower"),
	layer("store.mem_history_us_p50", "us", "lower"),
	layer("store.save_ms", "ms", "lower"),
	layer("store.openfile_ms", "ms", "lower"),
	layer("store.filebackend_history_us_p50", "us", "lower"),
	// Analyst passes.
	layer("carto.sweep_s", "s", "lower"),
	layer("cluster.run_s", "s", "lower"),
	layer("cluster.records_in", "count", "higher"),
	layer("cluster.clusters", "count", "higher"),
	layer("analysis.churn_ms", "ms", "lower"),
	layer("analysis.usage_ms", "ms", "lower"),
	layer("analysis.census_ms", "ms", "lower"),
	layer("analysis.clusterstats_ms", "ms", "lower"),
	layer("trace.overhead_ratio", "ratio", "lower"),
}
