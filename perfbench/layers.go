package main

import (
	"fmt"
	"math"
)

// layerMetric is one per-layer metric: the layer it measures and the
// end-to-end metric, on which workload, it should move. exact marks the
// counts that repeat exactly for a seed on cold-explore (one client, a fixed
// op sequence): the candidates for exact gates.
type layerMetric struct {
	name, unit, better string
	layer              string
	moves              string
	exact              bool
}

// layerMetrics is the per-layer table; BENCHMARK.json's per_layer list
// mirrors it (perfbench_test.go checks that).
var layerMetrics = []layerMetric{
	{"server.handler_p50_ms", "ms", "lower", "server", "warm-serve query_p50_ms", false},
	{"server.self_p50_ms", "ms", "lower", "server", "warm-serve query_p50_ms", false},
	{"graph.open_us", "us", "lower", "graph", "cold-explore query_p50_ms, setup_s", false},
	{"graph.validate_ms", "ms", "lower", "graph", "cold-explore query_p50_ms, setup_s", false},
	{"graph.append_us", "us", "lower", "graph", "insert-mix insert_p50_ms", false},
	{"index.open_us", "us", "lower", "index", "cold-explore query_p50_ms", false},
	{"index.build_s", "s", "lower", "index", "setup_s", false},
	{"index.build_grid_s", "s", "lower", "index", "setup_s", false},
	{"index.build_vpselect_s", "s", "lower", "index", "setup_s", false},
	{"index.build_vantage_s", "s", "lower", "index", "setup_s", false},
	{"index.build_tree_s", "s", "lower", "index", "setup_s", false},
	{"index.session_init_p50_ms", "ms", "lower", "index", "cold-explore query_p50_ms, insert-mix query_p90_ms", false},
	{"index.session_inits", "count", "lower", "index", "cold-explore query_p50_ms, insert-mix query_p90_ms", true},
	{"index.topk_p50_ms", "ms", "lower", "index", "warm-serve query_qps", false},
	{"index.pq_pops_per_query", "count", "lower", "index", "warm-serve query_qps", true},
	{"index.verified_leaves_per_query", "count", "lower", "index", "warm-serve query_qps", true},
	{"index.candidate_scans_per_query", "count", "lower", "index", "warm-serve query_qps", true},
	{"index.insert_p50_ms", "ms", "lower", "index", "insert-mix insert_p50_ms", false},
	{"index.build_full_solves", "count", "lower", "kernel", "setup_s", true},
	{"metric.cache_hits_per_query", "count", "lower", "metric", "warm-serve query_qps, heap_live_mb", false},
	{"metric.cache_misses_per_query", "count", "lower", "metric", "warm-serve query_qps, heap_live_mb", false},
	{"metric.cache_hit_ratio", "ratio", "higher", "metric", "warm-serve query_qps, heap_live_mb", false},
	{"metric.cache_entries", "count", "lower", "metric", "warm-serve query_qps, heap_live_mb", false},
	{"metric.decisions_per_query", "count", "lower", "metric", "cold-explore query_p50_ms", true},
	{"metric.pruned_ratio", "ratio", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.prune_embedding", "count", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.prune_rowmin", "count", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.prune_rowmin_solved", "count", "lower", "metric", "cold-explore query_p50_ms", true},
	{"metric.prune_greedy", "count", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.prune_dual", "count", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.greedy_fire_ratio", "ratio", "higher", "metric", "cold-explore query_p50_ms", true},
	{"metric.dual_fire_ratio", "ratio", "higher", "metric", "cold-explore query_p50_ms", true},
	{"kernel.full_solves_per_query", "count", "lower", "kernel", "cold-explore query_p50_ms, query_qps", true},
	{"kernel.distance_computations", "count", "lower", "kernel", "cold-explore query_p50_ms, query_qps", true},
	{"kernel.exact_us", "us", "lower", "kernel", "cold-explore query_p50_ms, setup_s", false},
	{"runtime.alloc_bytes_per_query", "B", "lower", "runtime", "warm-serve query_p90_ms", false},
	{"runtime.gc_cycles", "count", "lower", "runtime", "warm-serve query_p90_ms", false},
	{"runtime.gc_pause_ms", "ms", "lower", "runtime", "warm-serve query_p90_ms", false},
	{"trace.overhead_pct", "%", "lower", "trace", "none: traced against untraced replay of the read-only prefix", false},
}

// layerMetricsFromFile derives every per-layer metric from a span file.
func layerMetricsFromFile(path string) (map[string]metricValue, error) {
	spans, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	vals, err := deriveLayerMetrics(spans)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metricValue, len(layerMetrics))
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: per-layer metric %s not derived", m.name)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}

// deriveLayerMetrics computes the per-layer metrics from the spans of one
// traced run. Twin spans (children of twin.op) time the layers below the
// handler for the same op the served path answered.
func deriveLayerMetrics(spans []span) (map[string]float64, error) {
	byID := make(map[int]span, len(spans))
	byName := map[string][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	one := func(name string) (span, error) {
		if len(byName[name]) != 1 {
			return span{}, fmt.Errorf("perfbench: want one %s span, have %d", name, len(byName[name]))
		}
		return byName[name][0], nil
	}
	traced, err := one("replay.traced")
	if err != nil {
		return nil, err
	}
	untraced, err := one("replay.untraced")
	if err != nil {
		return nil, err
	}
	exact, err := one("kernel.exact")
	if err != nil {
		return nil, err
	}
	within := func(s span) bool { return s.Start >= traced.Start && s.End <= traced.End }
	durations := func(name string, scale float64) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.End-s.Start)*scale)
		}
		return xs
	}
	const toMs, toUs = 1e-6, 1e-3

	// Ops of the traced replay, by kind; engine time below the handler per
	// query op from its twin spans.
	queryOps := map[int]bool{}
	var prefixOpMs []float64
	for _, s := range byName["client.op"] {
		if s.Attrs["query"] == 1 {
			queryOps[s.Op] = true
			if s.Attrs["prefix"] == 1 {
				prefixOpMs = append(prefixOpMs, s.ms())
			}
		}
	}
	engineMs := map[int]float64{}
	sum := map[string]float64{}
	var queries float64
	for _, name := range []string{"graph.validate", "index.session_init", "index.topk"} {
		for _, s := range byName[name] {
			if !within(s) || byID[s.Parent].Name != "twin.op" {
				continue
			}
			engineMs[s.Op] += s.ms()
			if name == "index.topk" {
				queries++
			}
			if name == "graph.validate" {
				continue
			}
			for k, v := range s.Attrs {
				sum[k] += v
			}
		}
	}
	if queries == 0 {
		return nil, fmt.Errorf("perfbench: traced replay answered no queries")
	}
	var handlerMs, selfMs []float64
	for _, s := range byName["server.handler"] {
		if !queryOps[s.Op] {
			continue
		}
		handlerMs = append(handlerMs, s.ms())
		selfMs = append(selfMs, s.ms()-engineMs[s.Op])
	}
	var sessionInits float64
	for _, s := range byName["index.session_init"] {
		if within(s) {
			sessionInits++
		}
	}
	build := func(attr string) float64 {
		var xs []float64
		for _, s := range byName["index.build"] {
			xs = append(xs, s.Attrs[attr])
		}
		return quantile(xs, 0.5)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	decisions := sum["prune_embedding"] + sum["prune_rowmin"] + sum["prune_greedy"] + sum["prune_dual"] + sum["bounded_exact"]
	perQuery := func(k string) float64 { return sum[k] / queries }
	overhead := 0.0
	if base := untraced.Attrs["op_p50_ms"]; base > 0 {
		overhead = (quantile(prefixOpMs, 0.5)/base - 1) * 100
	}
	vals := map[string]float64{
		"server.handler_p50_ms":           quantile(handlerMs, 0.5),
		"server.self_p50_ms":              quantile(selfMs, 0.5),
		"graph.open_us":                   quantile(durations("graph.open", toUs), 0.5),
		"graph.validate_ms":               quantile(durations("graph.validate", toMs), 0.5),
		"graph.append_us":                 quantile(durations("graph.append", toUs), 0.5),
		"index.open_us":                   quantile(durations("index.open", toUs), 0.5),
		"index.build_s":                   build("build_total_s"),
		"index.build_grid_s":              build("build_grid_s"),
		"index.build_vpselect_s":          build("build_vpselect_s"),
		"index.build_vantage_s":           build("build_vantage_s"),
		"index.build_tree_s":              build("build_tree_s"),
		"index.build_full_solves":         build("build_full_solves"),
		"index.session_init_p50_ms":       quantile(durations("index.session_init", toMs), 0.5),
		"index.session_inits":             sessionInits,
		"index.topk_p50_ms":               quantile(durations("index.topk", toMs), 0.5),
		"index.pq_pops_per_query":         perQuery("pq_pops"),
		"index.verified_leaves_per_query": perQuery("verified_leaves"),
		"index.candidate_scans_per_query": perQuery("candidate_scans"),
		"index.insert_p50_ms":             quantile(durations("index.insert", toMs), 0.5),
		"metric.cache_hits_per_query":     perQuery("cache_hits"),
		"metric.cache_misses_per_query":   perQuery("cache_misses"),
		"metric.cache_hit_ratio":          ratio(sum["cache_hits"], sum["cache_hits"]+sum["cache_misses"]),
		"metric.cache_entries":            traced.Attrs["cache_entries"],
		"metric.decisions_per_query":      decisions / queries,
		"metric.pruned_ratio":             ratio(sum["pruned"], decisions),
		"metric.prune_embedding":          perQuery("prune_embedding"),
		"metric.prune_rowmin":             perQuery("prune_rowmin"),
		"metric.prune_rowmin_solved":      perQuery("prune_rowmin_solved"),
		"metric.prune_greedy":             perQuery("prune_greedy"),
		"metric.prune_dual":               perQuery("prune_dual"),
		"metric.greedy_fire_ratio":        ratio(sum["prune_greedy"], sum["greedy_tried"]),
		"metric.dual_fire_ratio":          ratio(sum["prune_dual"], sum["dual_armed"]),
		"kernel.full_solves_per_query":    perQuery("full_solves"),
		"kernel.distance_computations":    sum["distance_computations"],
		"kernel.exact_us":                 exact.ms() * 1e3 / exact.Attrs["pairs"],
		"runtime.alloc_bytes_per_query":   untraced.Attrs["alloc_bytes"] / untraced.Attrs["queries"],
		"runtime.gc_cycles":               untraced.Attrs["gc_cycles"],
		"runtime.gc_pause_ms":             untraced.Attrs["gc_pause_ms"],
		"trace.overhead_pct":              overhead,
	}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: per-layer metric %s is %v", k, v)
		}
	}
	return vals, nil
}
