package main

import "strings"

// layerMetric is one per-layer metric of the traced run, with the
// prediction written down before measuring: the end-to-end metrics
// (metric@workload) a change to this layer should move. On every other
// workload the prediction is "no change". BENCHMARK.json lists the same
// names, units and directions.
type layerMetric struct {
	name, unit, better string
	moves              []string
}

var (
	hotLatency      = []string{"latency_p50_ms@serve-hot"}
	hotTail         = []string{"latency_p99_ms@serve-hot"}
	hotThroughput   = []string{"throughput_rps@serve-hot"}
	pointThroughput = []string{"throughput_rps@point-cold"}
	pointPredict    = []string{"throughput_rps@point-cold", "items_per_s@point-cold"}
	searchLatency   = []string{"latency_p50_ms@search-cold"}
	searchPhases    = []string{"latency_p50_ms@search-cold", "latency_p99_ms@search-cold"}
	searchTail      = []string{"latency_p99_ms@search-cold"}
	simulation      = []string{"accesses_per_s@simulate-cold", "throughput_rps@simulate-cold"}
)

// layerMetrics is the traced run's output, layer by layer. Names taken from
// the program's own obs instruments keep those names.
var layerMetrics = []layerMetric{
	{"service.overhead_us", "us", "lower", []string{"latency_p50_ms@serve-hot", "throughput_rps@serve-hot", "throughput_rps@point-cold"}},
	{"service.compute_us", "us", "lower", []string{"latency_p50_ms@point-cold", "latency_p50_ms@search-cold", "latency_p50_ms@simulate-cold"}},
	{"service.key_us", "us", "lower", pointThroughput},
	{"service.cache.hit_ratio", "ratio", "higher", hotThroughput},
	{"service.plans.hit_ratio", "ratio", "higher", hotThroughput},
	{"service.analyses.hit_ratio", "ratio", "higher", hotThroughput},
	{"cluster.hop_us", "us", "lower", hotLatency},
	{"cluster.direct_us", "us", "lower", hotLatency},
	{"router.keymemo.hit_ratio", "ratio", "higher", hotTail},
	{"router.retries", "count", "lower", hotTail},
	{"router.hedges", "count", "lower", hotTail},
	{"loopir.parse_us", "us", "lower", pointThroughput},
	{"loopir.canonicalize_us", "us", "lower", pointThroughput},
	{"core.analyze_us", "us", "lower", searchLatency},
	{"analyze.class_us", "us", "lower", searchLatency},
	{"analyze.partition_us", "us", "lower", searchLatency},
	{"analyze.span_us", "us", "lower", searchLatency},
	{"analyze.compile_us", "us", "lower", searchLatency},
	{"analyze.components", "count", "lower", searchLatency},
	{"core.predict_fa_us", "us", "lower", pointPredict},
	{"core.predict_conflict_us", "us", "lower", pointPredict},
	{"evalcache.hit_ratio", "ratio", "higher", searchLatency},
	{"evalcache.frame_evals", "count", "lower", searchLatency},
	{"expr.eval_ns", "ns", "lower", []string{"throughput_rps@point-cold", "latency_p50_ms@search-cold"}},
	{"tilesearch.search_ms", "ms", "lower", searchPhases},
	{"tilesearch.candidate_ns", "ns", "lower", searchPhases},
	{"search.evaluated", "count", "lower", searchPhases},
	{"search.candidates.coarse", "count", "lower", searchPhases},
	{"search.candidates.frontier", "count", "lower", searchPhases},
	{"search.candidates.refine", "count", "lower", searchPhases},
	{"search.pruned", "count", "higher", searchPhases},
	{"tilesearch.plans_ms", "ms", "lower", searchTail},
	{"tilesearch.enumerate_us", "us", "lower", searchTail},
	{"plansearch.variants", "count", "lower", searchTail},
	{"plansearch.skipped", "count", "lower", searchTail},
	{"trace.compile_us", "us", "lower", simulation},
	{"trace.gen_ns_per_access", "ns/access", "lower", simulation},
	{"trace.accesses", "count", "higher", simulation},
	{"cachesim.exact_ns_per_access", "ns/access", "lower", simulation},
	{"cachesim.sampled_ns_per_access", "ns/access", "lower", simulation},
	{"cachesim.stack_ops", "count", "lower", simulation},
	{"cachesim.compactions", "count", "lower", simulation},
	{"cachesim.sampled.kept", "count", "lower", simulation},
	{"cachesim.analytic_us", "us", "lower", pointThroughput},
	// The traced run's own health: its HTTP latency against the untraced
	// half of the same run; the requests whose layer self times summed to
	// more than their HTTP latency; and all layer self time over all HTTP
	// latency.
	{"bench.traced_p50_ms", "ms", "lower", nil},
	{"bench.untraced_p50_ms", "ms", "lower", nil},
	{"bench.tracing_overhead", "ratio", "lower", nil},
	{"bench.consistency_violations", "count", "lower", nil},
	{"bench.self_over_http", "ratio", "lower", nil},
}

// noChange lists the workloads on which m predicts no change.
func (m layerMetric) noChange() []string {
	var out []string
	for _, w := range workloadNames {
		moved := false
		for _, mv := range m.moves {
			moved = moved || strings.HasSuffix(mv, "@"+w)
		}
		if !moved {
			out = append(out, w)
		}
	}
	return out
}
