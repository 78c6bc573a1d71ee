package main

import "memthrottle/internal/experiments"

// metric is one entry of BENCHMARK.json's end_to_end or per_layer list;
// a test checks that the two lists here and there agree.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user sees. Every workload measures each
// of them on its own unit of work: the whole catalog after set-up
// (sim-catalog), one Run phase of 128 pairs (host-batch), or one served
// job, timed from when it was due (host-serve). On the host workloads
// op_ms_p50 is the median over 250 ms windows of each window's median.
// The 99th percentile is too unsteady on a shared 2-CPU box to carry a
// bound; it is reported per layer.
//
// The bounds are as wide as the machine they were set on needs: on a
// shared 2-CPU Intel Xeon, the speed of the CPU-bound catalog drifted
// by 12% between two sets of ten runs twenty minutes apart. setup_s
// keeps the widest bound, so work moved into set-up shows.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"op_ms_p50", "ms", "lower", 0.24},
	{"work_per_s", "1/s", "higher", 0.24},
}

// layerFixed are the per-layer metrics other than the per-experiment
// times and the tracing overheads. A layer a workload does not run
// reads 0 there.
var layerFixed = []metric{
	{"fail_ratio", "ratio", "lower", 0},

	// internal/experiments, over the catalog.
	{"sim.alloc_mb", "MB", "lower", 0},
	{"sim.gc_cycles", "count", "lower", 0},
	// internal/mem.
	{"mem.calibrations", "count", "lower", 0},
	{"mem.calibrate_ms", "ms", "lower", 0},
	// internal/simsched and the layers beneath it.
	{"sched.runs", "count", "lower", 0},
	{"sched.run_ms", "ms", "lower", 0},
	{"sched.serve_run_ms", "ms", "lower", 0},
	{"sched.mix_run_ms", "ms", "lower", 0},
	// Simulated results, in simulated time: a performance change must
	// leave them exactly as they are.
	{"sim.f14_dynamic_gmean", "ratio", "higher", 0},
	{"sim.x2_mean_err_pct", "%", "lower", 0},

	// host Run dispatch (host-batch).
	{"batch.run_us_p50", "us", "lower", 0},
	{"batch.run_us_p99", "us", "lower", 0},
	{"batch.busy_share", "ratio", "higher", 0},
	{"batch.steals_per_pair", "ratio", "lower", 0},
	{"batch.remote_steals_per_pair", "ratio", "lower", 0},
	{"batch.spills_per_pair", "ratio", "lower", 0},
	{"batch.parks_per_pair", "ratio", "lower", 0},
	{"batch.idle_share", "ratio", "lower", 0},
	{"batch.peak_mem_tasks", "count", "lower", 0},
	{"batch.peak_overcounts", "count", "lower", 0},
	{"batch.tm_us", "us", "lower", 0},
	{"batch.tc_us", "us", "lower", 0},

	// host Serve ingress and admission (host-serve).
	{"serve.submit_us_p50", "us", "lower", 0},
	{"serve.submit_us_p99", "us", "lower", 0},
	{"serve.late_ms_p50", "ms", "lower", 0},
	{"serve.late_ms_p99", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p99", "ms", "lower", 0},
	{"serve.admit_batch", "count", "higher", 0},
	{"serve.drain_ms", "ms", "lower", 0},
	// host serving workers and the internal/core controller (host-serve).
	{"serve.service_ms_p50", "ms", "lower", 0},
	{"serve.service_ms_p99", "ms", "lower", 0},
	{"serve.tm_us", "us", "lower", 0},
	{"serve.tc_us", "us", "lower", 0},
	{"serve.final_mtl", "count", "lower", 0},
	{"serve.mtl_changes", "count", "lower", 0},
	{"serve.peak_mem_tasks", "count", "lower", 0},
	// host-serve figures too unsteady on a 2-CPU box to carry a bound:
	// the light rate's 99th percentile, and the heavy rate, served
	// untraced in the traced run only.
	{"serve.p99_ms_light", "ms", "lower", 0},
	{"serve.p50_ms_heavy", "ms", "lower", 0},
	{"serve.p99_ms_heavy", "ms", "lower", 0},
	{"serve.goodput_per_s_heavy", "1/s", "higher", 0},
	{"serve.rejected_heavy", "count", "lower", 0},
}

// perLayer lists every per-layer metric: the fixed ones, one wall time
// per catalog experiment, and the tracing overhead of each end-to-end
// metric.
func perLayer() []metric {
	out := append([]metric(nil), layerFixed...)
	for _, s := range experiments.Catalog() {
		out = append(out, metric{"exp." + s.ID + "_s", "s", "lower", 0})
	}
	for _, m := range endToEnd {
		out = append(out, metric{"overhead." + m.Name, m.Unit, "lower", 0})
	}
	return out
}

// zeroLayer returns every per-layer metric set to 0, the reading of a
// layer the workload never calls. Workloads overwrite what they measure.
func zeroLayer() map[string]float64 {
	m := make(map[string]float64)
	for _, d := range perLayer() {
		m[d.Name] = 0
	}
	return m
}
