package main

// metricDef names a reported metric; BENCHMARK.json lists the same
// names, units and directions (checked by TestCatalogueMatchesBenchmark).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. None can be zero: q-errors are at least 1, and
// complete_frac is the share of answers not degraded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_us", "us", "lower"},
	{"complete_frac", "ratio", "higher"},
	{"qerror_p50", "ratio", "lower"},
	{"qerror_p95", "ratio", "lower"},
	{"summary_resident_bytes", "bytes", "lower"},
	{"heap_inuse_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer the
// workload does not load reports 0.
var perLayer = []metricDef{
	{"http.transport_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"client.ops_per_s", "1/s", "higher"},
	{"client.p90_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower"},
	{"resilience.shed", "count", "lower"},
	{"resilience.queued", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.get_us", "us", "lower"},
	{"labeltree.parse_us", "us", "lower"},
	{"labeltree.key_us", "us", "lower"},
	{"core.estimate_p50_us", "us", "lower"},
	{"core.estimate_p99_us", "us", "lower"},
	{"estimate.subcache_hit_ratio", "ratio", "higher"},
	{"estimate.subcache_evictions", "count", "lower"},
	{"estimate.augmentations_per_query", "count", "lower"},
	{"estimate.max_depth_p99", "count", "lower"},
	{"lattice.probes_per_query", "count", "lower"},
	{"lattice.probe_ns", "ns", "lower"},
	{"planner.choose_us", "us", "lower"},
	{"planner.calibration_p50", "ratio", "lower"},
	{"twigjoin.enumerate_us", "us", "lower"},
	{"twigjoin.candidates_per_query", "count", "lower"},
	{"twigjoin.index_build_ms", "ms", "lower"},
	{"xmlparse.parse_ms", "ms", "lower"},
	{"mine.mine_ms", "ms", "lower"},
	{"corpus.add_ms", "ms", "lower"},
	{"corpus.refreezes", "count", "higher"},
	{"corpus.refreeze_ms", "ms", "lower"},
	{"corpus.backpressured", "count", "lower"},
	{"fsx.snapshot_bytes", "bytes", "lower"},
	{"core.epochs_published", "count", "higher"},
	{"ingest.write_p50_ms", "ms", "lower"},
	{"ingest.write_p99_ms", "ms", "lower"},
	{"ingest.generator_lag_ms", "ms", "lower"},
	{"ledger.trace_overhead_frac", "ratio", "lower"},
	{"ledger.unattributed_us", "us", "lower"},
}

// fill builds the metrics object for defs from values (missing → 0).
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
