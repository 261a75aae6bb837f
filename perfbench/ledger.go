package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"treelattice/internal/corpus"
)

// endToEnd derives the untraced metrics (and the report-only
// throughput, tail, write and degradation figures) from the measured
// phase. Latency quantiles are over every read of the phase and
// throughput is reads completed over the phase's length.
func (r *runner) endToEnd(measured *loopResult, wr *writeResult) {
	lat := measured.latencies()
	r.values["p50_us"] = quantile(lat, 0.5) / 1e3
	complete := 0
	for _, s := range measured.reads {
		if s.ok && !s.ans.Degraded {
			complete++
		}
	}
	r.values["complete_frac"] = float64(complete) / float64(max(len(lat), 1))
	r.note("ops_per_s", "1/s", float64(len(lat))/measured.elapsed.Seconds())
	r.note("p90_us", "us", quantile(lat, 0.9)/1e3)
	r.note("p99_us", "us", quantile(lat, 0.99)/1e3)
	r.note("read_samples", "count", float64(len(lat)))
	r.note("degraded_frac", "ratio", 1-r.values["complete_frac"])
	if wr != nil {
		r.note("write_p50_ms", "ms", quantile(wr.lat, 0.5)/1e6)
		r.note("write_p99_ms", "ms", quantile(wr.lat, 0.99)/1e6)
		r.note("write_samples", "count", float64(len(wr.lat)))
		r.note("generator_lag_max_ms", "ms", quantile(wr.lag, 1)/1e6)
	}
}

// note records a report-only figure, printed after the metrics.
func (r *runner) note(name, unit string, v float64) {
	r.extra = append(r.extra, metricDef{name: name, unit: unit})
	r.values[name] = v
}

// replay re-runs the traced phase's requests in-process through the
// public layer functions.
func (r *runner) replay(ctx context.Context, measured *loopResult, wr *writeResult) (*layers, error) {
	reads := append([]sample(nil), measured.reads...)
	sort.Slice(reads, func(i, j int) bool { return reads[i].id < reads[j].id })
	var lay *layers
	var err error
	switch r.cfg.workload {
	case "query-exec":
		ref, oerr := r.reference()
		if oerr != nil {
			return nil, oerr
		}
		lay, err = replayQueries(ctx, ref, r.req, reads, r.m.Server.QueryNodeBudget)
	case "ingest-mixed":
		lay, err = replayEstimates(ctx, r.env.c.Summary(), snapshotPath(r.env.dir), r.req, reads, r.in.hot)
		if err == nil && wr != nil {
			docs := make([]writeDoc, 0, len(wr.added))
			for _, i := range wr.added {
				docs = append(docs, r.in.writes[i])
			}
			lay.xmlParse, lay.mine, err = replayWrites(ctx, docs, r.m.Corpus.K)
		}
	default:
		ref, oerr := r.reference()
		if oerr != nil {
			return nil, oerr
		}
		var warm []twig
		if r.cfg.workload == "estimate-hot" {
			warm = r.in.hot
		}
		lay, err = replayEstimates(ctx, ref.Summary(), snapshotPath(r.env.dir), r.req, reads, warm)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	lay.indexBuild = indexBuildMS(r.in.docs)
	return lay, nil
}

// reference opens (once) a second read-only replica of the served
// corpus, with caches of its own.
func (r *runner) reference() (*corpus.Corpus, error) {
	if r.ref == nil {
		ref, err := corpus.OpenReadOnly(r.env.dir)
		if err != nil {
			return nil, fmt.Errorf("opening reference replica: %w", err)
		}
		r.ref = ref
	}
	return r.ref, nil
}

// perLayer derives the traced metrics: handler and transport spans per
// request, runtime and obs counter deltas over the traced phase, and
// the replayed layer timings.
func (r *runner) perLayer(measured, untraced *loopResult, wr *writeResult, lay *layers, d counters, ms0, ms1 *runtime.MemStats, refreezeMS []float64) {
	v := r.values
	var handler, transport, unattributed samples
	r.env.mw.mu.Lock()
	for _, s := range measured.reads {
		if h, ok := r.env.mw.spans[s.id]; ok && s.ok {
			handler = append(handler, h)
			transport = append(transport, s.lat-h)
		}
	}
	// What no span accounts for is inside the handler: the served
	// handler span less the replayed layers of the same request
	// (routing, admission, URL decoding, JSON encoding). The transport
	// span is the rest of the round trip by construction.
	for j, s := range lay.reads {
		if h, ok := r.env.mw.spans[s.id]; ok && s.ok {
			unattributed = append(unattributed, h-lay.total[j])
		}
	}
	r.env.mw.mu.Unlock()
	tracedP50 := quantile(measured.latencies(), 0.5) / 1e3
	v["http.transport_us"] = quantile(transport, 0.5) / 1e3
	v["serve.handler_us"] = quantile(handler, 0.5) / 1e3
	v["ledger.unattributed_us"] = quantile(unattributed, 0.5) / 1e3
	clean := untraced.latencies()
	v["client.ops_per_s"] = float64(len(clean)) / untraced.elapsed.Seconds()
	v["client.p90_us"] = quantile(clean, 0.9) / 1e3
	v["client.p99_us"] = quantile(clean, 0.99) / 1e3
	if u := quantile(clean, 0.5) / 1e3; u > 0 {
		v["ledger.trace_overhead_frac"] = tracedP50/u - 1
	}

	ops := len(measured.reads)
	if wr != nil {
		ops += wr.sent
	}
	v["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(ops, 1))
	v["runtime.gc_pause_ms_per_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / measured.elapsed.Seconds()
	v["resilience.shed"] = float64(d.shed)
	v["resilience.queued"] = float64(d.queued)
	if n := d.qHits + d.qMisses; n > 0 {
		v["qcache.hit_ratio"] = float64(d.qHits) / float64(n)
	}
	if n := d.subHits + d.subMisses; n > 0 {
		v["estimate.subcache_hit_ratio"] = float64(d.subHits) / float64(n)
	}
	v["estimate.subcache_evictions"] = float64(d.subEvictions)

	v["qcache.get_us"] = quantile(lay.qget, 0.5) / 1e3
	v["labeltree.parse_us"] = quantile(lay.parse, 0.5) / 1e3
	v["labeltree.key_us"] = quantile(lay.key, 0.5) / 1e3
	v["core.estimate_p50_us"] = quantile(lay.estimate, 0.5) / 1e3
	v["core.estimate_p99_us"] = quantile(lay.estimate, 0.99) / 1e3
	v["estimate.augmentations_per_query"] = meanOf(lay.augmentations)
	v["estimate.max_depth_p99"] = quantile(lay.depth, 0.99)
	v["lattice.probes_per_query"] = meanOf(lay.probes)
	v["lattice.probe_ns"] = lay.probeNS
	v["planner.choose_us"] = quantile(lay.choose, 0.5) / 1e3
	v["planner.calibration_p50"] = quantile(lay.calibration, 0.5)
	v["twigjoin.enumerate_us"] = quantile(lay.enumerate, 0.5) / 1e3
	v["twigjoin.candidates_per_query"] = meanOf(lay.candidates)
	v["twigjoin.index_build_ms"] = lay.indexBuild
	v["xmlparse.parse_ms"] = quantile(lay.xmlParse, 0.5) / 1e6
	v["mine.mine_ms"] = quantile(lay.mine, 0.5) / 1e6

	r.env.backend.mu.Lock()
	v["corpus.add_ms"] = quantile(r.env.backend.adds, 0.5) / 1e6
	r.env.backend.mu.Unlock()
	v["corpus.refreezes"] = float64(d.refreezes)
	v["corpus.refreeze_ms"] = quantile(refreezeMS, 0.5)
	v["corpus.backpressured"] = float64(d.backp)
	if r.env.snaps != nil {
		v["fsx.snapshot_bytes"] = float64(r.env.snaps.last.Load())
	}
	v["core.epochs_published"] = float64(d.epoch)
	if wr != nil {
		v["ingest.write_p50_ms"] = quantile(wr.lat, 0.5) / 1e6
		v["ingest.write_p99_ms"] = quantile(wr.lat, 0.99) / 1e6
		v["ingest.generator_lag_ms"] = quantile(wr.lag, 1) / 1e6
	}
	r.note("replayed_requests", "count", float64(len(lay.reads)))
	r.note("traced_p50_us", "us", tracedP50)
	r.note("untraced_p50_us", "us", tracedP50/(1+v["ledger.trace_overhead_frac"]))
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
