package main

// layerMetric is one per-layer metric of the traced run. target names the
// end-to-end metric (and workloads) a change to the layer should move; it
// is documentation, mirrored in README.md and BENCHMARK.json.
type layerMetric struct {
	name, unit, better, target string
}

// layerMetrics is the catalogue every traced run reports. A metric whose
// layer the workload never reaches reads 0.
var layerMetrics = []layerMetric{
	{"topology.build_s", "s", "lower", "setup_s, all"},

	{"services.gen_s", "s", "lower", "work_per_ref_cpu_s, mirror+fabric"},
	{"services.ns_per_pkt.web", "ns/pkt", "lower", "work_per_ref_cpu_s, mirror+fabric"},
	{"services.ns_per_pkt.cache_f", "ns/pkt", "lower", "work_per_ref_cpu_s, mirror+fabric"},
	{"services.ns_per_pkt.cache_l", "ns/pkt", "lower", "work_per_ref_cpu_s, mirror"},
	{"services.ns_per_pkt.hadoop", "ns/pkt", "lower", "work_per_ref_cpu_s, mirror"},
	{"services.allocs_per_pkt", "allocs/pkt", "lower", "work_per_ref_cpu_s, mirror+fabric"},
	{"services.fleet_flows_s", "s", "lower", "work_per_ref_cpu_s, fleet"},
	{"services.flow_attempts", "count", "lower", "work_per_ref_cpu_s, fleet"},
	{"services.matrix_synth_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire"},
	{"services.matrix_cells", "count", "lower", "work_per_ref_cpu_s, fleet-wire"},
	{"services.matrix_draw_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire"},

	{"workload.batches", "count", "lower", "work_per_ref_cpu_s, mirror"},
	{"workload.pkts_per_batch", "pkts/batch", "higher", "work_per_ref_cpu_s, mirror"},

	{"analysis.setup_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.flows_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.hh_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.locality_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.rates_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.sizes_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.arrivals_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.concurrency_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.mix_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.finish_s", "s", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.ns_per_pkt", "ns/pkt", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.allocs_per_pkt", "allocs/pkt", "lower", "work_per_ref_cpu_s, mirror"},
	{"analysis.digest_s", "s", "lower", "work_per_ref_cpu_s, fleet+fleet-wire"},
	{"analysis.buffer_samples", "count", "lower", "work_per_ref_cpu_s, fabric"},

	{"netsim.build_s", "s", "lower", "work_per_ref_cpu_s, fabric"},
	{"netsim.schedule_s", "s", "lower", "work_per_ref_cpu_s+peak_rss_mib, fabric"},
	{"netsim.run_s", "s", "lower", "work_per_ref_cpu_s+peak_rss_mib, fabric"},
	{"netsim.events", "count", "lower", "work_per_ref_cpu_s, fabric"},
	{"netsim.events_per_pkt", "events/pkt", "lower", "work_per_ref_cpu_s, fabric"},
	{"netsim.ns_per_event", "ns/event", "lower", "work_per_ref_cpu_s, fabric"},
	{"netsim.allocs_per_pkt", "allocs/pkt", "lower", "work_per_ref_cpu_s+peak_rss_mib, fabric"},
	{"netsim.pending_peak", "count", "lower", "peak_rss_mib, fabric"},
	{"netsim.forwarded", "count", "higher", "invariant, fabric"},
	{"netsim.rsw_drops", "count", "lower", "invariant, fabric"},
	{"netsim.occ_peak_frac", "fraction", "lower", "invariant, fabric"},

	{"core.sort_s", "s", "lower", "work_per_ref_cpu_s, fabric"},
	{"core.residual_s", "s", "lower", "work_per_ref_cpu_s, all"},
	{"core.cpu_util", "fraction", "higher", "work_per_ref_cpu_s, all"},
	{"core.parallel_eff", "fraction", "higher", "work_per_ref_cpu_s, fleet"},
	{"core.cells", "count", "lower", "work_per_ref_cpu_s, fleet+fleet-wire"},
	{"core.cell_p50_ms", "ms", "lower", "work_per_ref_cpu_s, fleet+fleet-wire"},
	{"core.cell_tail_ms", "ms", "lower", "work_per_ref_cpu_s, fleet+fleet-wire"},
	{"core.cell_tail_pct", "percentile", "higher", "sample size of cell_tail_ms"},
	{"core.agent_send_block_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire"},
	{"core.aggregator_wait_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire"},

	{"fbflow.tag_s", "s", "lower", "work_per_ref_cpu_s+peak_rss_mib, fleet+fleet-wire"},
	{"fbflow.records", "count", "lower", "peak_rss_mib, fleet+fleet-wire"},
	{"fbflow.sample_frac", "fraction", "lower", "work_per_ref_cpu_s, fleet+fleet-wire"},
	{"fbflow.accumulate_s", "s", "lower", "work_per_ref_cpu_s+peak_rss_mib, fleet+fleet-wire"},
	{"fbflow.merge_s", "s", "lower", "work_per_ref_cpu_s+peak_rss_mib, fleet+fleet-wire"},
	{"fbflow.allocs_per_cell", "allocs/cell", "lower", "work_per_ref_cpu_s+peak_rss_mib, fleet+fleet-wire"},

	{"fbwire.encode_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire (fleet: no change)"},
	{"fbwire.decode_s", "s", "lower", "work_per_ref_cpu_s, fleet-wire (fleet: no change)"},
	{"fbwire.bytes_per_cell", "B/cell", "lower", "work_per_ref_cpu_s, fleet-wire (fleet: no change)"},
	{"fbwire.allocs_per_cell", "allocs/cell", "lower", "work_per_ref_cpu_s, fleet-wire (fleet: no change)"},

	{"trace.wall_s", "s", "lower", "traced replica wall time"},
	{"trace.overhead", "ratio", "lower", "traced wall / untraced replica wall"},
	{"trace.self_sum_frac", "fraction", "higher", "sum of self times / traced wall"},
	{"trace.attributed_frac", "fraction", "higher", "1 - core.residual_s / traced wall"},
}
