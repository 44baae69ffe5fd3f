package main

import (
	"math"
	"sort"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units (TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, printed for every workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"refs_per_s", "refs/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. Each workload measures the
// layers it loads; a layer it bypasses reads 0. The comments name the
// end-to-end metric each group should move, and on which workload.
var perLayer = []metricDef{
	// session; latency_p50_ms (pmu also on service)
	{"workloads.emit_ns_per_ref", "ns/ref"},
	{"pmu.profile_ns_per_ref", "ns/ref"},
	{"pmu.self_ns_per_ref", "ns/ref"},
	// latency_p50_ms on all three workloads
	{"core.analyze_ms", "ms"},
	{"core.render_us", "us"},
	{"core.samples", "count"},
	// session; latency_p90_ms
	{"analytic.analyze_us", "us"},
	{"advisor.recommend_ms", "ms"},
	{"advisor.tier_ms", "ms"},
	{"advisor.analytic_tier_ms", "ms"},
	{"advisor.static_tier_ms", "ms"},
	{"advisor.ms_per_sim", "ms"},
	{"advisor.sims", "count"},
	{"advisor.pruned_analytic", "count"},
	{"advisor.pruned_static", "count"},
	{"advisor.prune_ratio", "ratio"},
	// trace; refs_per_s
	{"trace.cctb_decode_ns_per_ref", "ns/ref"},
	{"trace.jsonl_ns_per_ref", "ns/ref"},
	{"trace.cctb_bytes_per_ref", "B/ref"},
	{"core.profile_trace_ns_per_ref", "ns/ref"},
	{"parsim.segments", "count"},
	// service; submit latency_p50_ms, queueing latency_p90_ms, refusals
	// and queue depth the failed ratio
	{"ccprofd.submit_ms_p50", "ms"},
	{"ccprofd.submit_ms_p90", "ms"},
	{"ccprofd.queued_ms_p50", "ms"},
	{"ccprofd.profile_run_ms_p50", "ms"},
	{"ccprofd.advise_run_ms_p50", "ms"},
	{"ccprofd.result_ms_p50", "ms"},
	{"ccprofd.busy_pct", "%"},
	{"ccprofd.refused", "count"},
	{"ccprofd.queue_depth_max", "count"},
	{"loadgen.late_ms_p90", "ms"},
	// every workload
	{"bench.unexplained_pct", "%"},
	{"bench.tracing_overhead_pct", "%"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie above quantile q: a percentile is
// worth reporting when at least ten do.
func beyond(n int, q float64) int { return int(float64(n) * (1 - q)) }
