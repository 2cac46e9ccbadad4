package main

import "time"

// The benchmark's fixed vocabulary: workloads, end-to-end metrics with
// their regression bounds, per-layer metrics, and the frozen SLOs. Later
// issues claim gains by these names, so nothing here is renamed; the root
// BENCHMARK.json is this file rendered by `go run . -spec` (bench_test.go
// asserts the two agree).

// runRounds is the number of measured rounds of every workload; the round
// length is -seconds / runRounds. The issue asks for 44 rounds of 1 s and
// allows shrinking to 30 when the driver caps total time: 92 driver runs
// in 3420 s leave ~35 s per run including set-up, so it is 30.
const runRounds = 30

// warmup is discarded before the first measured round.
const warmup = 2 * time.Second

// setupRepeats is how often set-up is performed in one run; setup_s is the
// median, which keeps one cold page-cache or scheduler hiccup out of it.
const setupRepeats = 3

// Frozen SLOs (ms). Open loop: 10 ms at the client with the server's
// SLOP99 at 5 ms. Closed loop: 2× the quiet latency_p99_ms measured when
// this benchmark landed, rounded to two digits.
const (
	sloPacedMs       = 10.0
	serverSLOP99     = 5 * time.Millisecond
	sloEdgeSingleMs  = 34.0
	sloEngineBatchMs = 1.4
)

// Paced schedule: each of the two connections stands for half of a
// 64-robot 200 Hz line — 32 robots × 200 Hz = 6400 rows/s, shipped as an
// 8-row frame every 1.25 ms.
const (
	pacedFrameRows = 8
	pacedPeriod    = 1250 * time.Microsecond
	pacedConns     = 2
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"edge-single", "closed loop, paper-scale model (T=512, 4.5M params) at float32, one Runner.Push at a time: batch 1, weights far larger than cache, tensor/nn do the work, serve/route do none"},
	{"engine-batch", "closed loop, tiny cache-resident edge model, 256-window ScoreSeriesBatched cycling f64/f32/int8: data movement outweighs GEMM, the opposite batch regime of edge-single"},
	{"serve-paced", "open loop, 2 sessions (f32 + int8) pace 12.8k windows/s into one serve.Server: codec, admission, coalescing, deadline scheduling, emit and obs carry latency; bypasses route"},
	{"routed-paced", "open loop, the serve-paced schedule through a route.Router fronting two backends: differs by exactly the relay hop and the two-way split, so route cost is the difference"},
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists what a user of the system sees; every workload reports
// every one. Bound is the share of the parent's median by which the metric
// may worsen before it counts as a regression: the issue's figure wherever
// the A/A runs (README) leave room for it — a bound must clear 2.5 times the
// worst disagreement of two sets of runs of the same code and, for the
// driver that accepts the benchmark, the worst spread within a set. Two
// metrics do not fit the issue's 0.10: latency_p99_ms (engine-batch's tail
// is the garbage collector's timing, spread up to 0.11) and
// cpu_s_per_mwindow (the paced pair's wake-ups cost what the host's other
// tenants leave, spread up to 0.11). They get twice their worst spread.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.20},
	{"windows_per_s", "1/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"latency_p99_ms", "ms", "lower", 0.20},
	{"slo_met_share", "share", "higher", 0.02},
	{"cpu_s_per_mwindow", "s", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"auc_vs_oracle", "ratio", "higher", 0.005},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists the traced run's metrics, prefixed by module. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []layerSpec{
	// Set-up path.
	{"robot.generate_ms", "ms", "lower"},
	{"modelio.save_ms", "ms", "lower"},
	{"modelio.load_ms.f64", "ms", "lower"},
	{"modelio.load_ms.f32", "ms", "lower"},
	{"modelio.load_ms.int8", "ms", "lower"},
	{"modelio.container_kb.f32", "kB", "lower"},
	{"modelio.container_kb.int8", "kB", "lower"},
	{"eval.auc_ms", "ms", "lower"},
	// Kernels, replayed at the workloads' own shapes.
	{"tensor.gemm_ns_per_window.edge.f64", "ns", "lower"},
	{"tensor.gemm_ns_per_window.edge.f32", "ns", "lower"},
	{"tensor.qgemm_ns_per_window.edge.int8", "ns", "lower"},
	{"tensor.quantize_ns_per_window.edge", "ns", "lower"},
	{"tensor.requant_ns_per_window.edge", "ns", "lower"},
	{"tensor.gemm_ms.paper.f32.n1", "ms", "lower"},
	// Compute stages, from obs.StagesSnapshot() deltas over the measured phase.
	{"nn.quantize_ns_per_window.f64", "ns", "lower"},
	{"nn.quantize_ns_per_window.f32", "ns", "lower"},
	{"nn.quantize_ns_per_window.int8", "ns", "lower"},
	{"nn.pack_ns_per_window.f64", "ns", "lower"},
	{"nn.pack_ns_per_window.f32", "ns", "lower"},
	{"nn.pack_ns_per_window.int8", "ns", "lower"},
	{"nn.gemm_ns_per_window.f64", "ns", "lower"},
	{"nn.gemm_ns_per_window.f32", "ns", "lower"},
	{"nn.gemm_ns_per_window.int8", "ns", "lower"},
	{"nn.requant_ns_per_window.f64", "ns", "lower"},
	{"nn.requant_ns_per_window.f32", "ns", "lower"},
	{"nn.requant_ns_per_window.int8", "ns", "lower"},
	{"core.scorebatch_ns_per_window.f64", "ns", "lower"},
	{"core.scorebatch_ns_per_window.f32", "ns", "lower"},
	{"core.scorebatch_ns_per_window.int8", "ns", "lower"},
	{"core.scorebatch_ns_per_window.n8.f32", "ns", "lower"},
	{"core.scorebatch_ns_per_window.n8.int8", "ns", "lower"},
	{"core.score_ms.paper.f64", "ms", "lower"},
	{"core.score_ms.paper.f32", "ms", "lower"},
	{"core.score_ms.paper.int8", "ms", "lower"},
	{"core.allocs_per_window.edge-single", "count", "lower"},
	{"core.allocs_per_window.engine-batch", "count", "lower"},
	{"detect.windowing_ns_per_window", "ns", "lower"},
	{"detect.chunks_per_kwindow", "count", "lower"},
	// Wire codec and the streaming runner.
	{"stream.encode_samples_ns_per_row", "ns", "lower"},
	{"stream.decode_samples_ns_per_row", "ns", "lower"},
	{"stream.encode_scores_ns_per_score", "ns", "lower"},
	{"stream.decode_scores_ns_per_score", "ns", "lower"},
	{"stream.frames_per_kwindow", "count", "lower"},
	{"stream.wire_bytes_per_window", "bytes", "lower"},
	{"stream.runner_push_us.paper", "us", "lower"},
	// Serving tier, from the server's own registry.
	{"serve.dial_ms", "ms", "lower"},
	{"serve.first_score_ms", "ms", "lower"},
	{"serve.send_us_per_frame", "us", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.batches_per_kwindow", "count", "lower"},
	{"serve.admit_wait_us_per_window", "us", "lower"},
	{"serve.fill_wait_us_per_window", "us", "lower"},
	{"serve.score_us_per_window", "us", "lower"},
	{"serve.emit_us_per_window", "us", "lower"},
	{"serve.coalesce_p99_ms", "ms", "lower"},
	{"serve.flush_share.fill", "share", "higher"},
	{"serve.flush_share.deadline", "share", "lower"},
	{"serve.flush_share.drain", "share", "lower"},
	{"serve.samples_dropped", "count", "lower"},
	{"serve.scores_dropped", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.client_minus_server_p50_ms", "ms", "lower"},
	{"serve.latency_p50_ms.f32", "ms", "lower"},
	{"serve.latency_p50_ms.int8", "ms", "lower"},
	{"serve.latency_p99_ms.f32", "ms", "lower"},
	{"serve.latency_p99_ms.int8", "ms", "lower"},
	// Router.
	{"route.dial_ms", "ms", "lower"},
	{"route.added_latency_p50_ms", "ms", "lower"},
	{"route.added_latency_p99_ms", "ms", "lower"},
	{"route.added_cpu_s_per_mwindow", "s", "lower"},
	{"route.handoffs", "count", "lower"},
	{"route.relay_dropped_frames", "count", "lower"},
	// Telemetry's own cost.
	{"obs.observe_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"obs.series", "count", "lower"},
	// The instrument itself.
	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.quiet_gap", "share", "lower"},
	{"bench.round_iqr_share", "share", "lower"},
	{"bench.round_p50_ms", "ms", "lower"},
	{"bench.round_p99_ms", "ms", "lower"},
	{"bench.process_rss_mb", "MB", "lower"},
	{"bench.steal_share", "share", "lower"},
	{"bench.machine_speed", "ratio", "lower"},
	{"bench.gc_cycles_per_s", "1/s", "lower"},
	{"bench.gc_pause_ms_per_s", "ms", "lower"},
	{"bench.goroutines_peak", "count", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.unattributed_share", "share", "lower"},
}

// benchmarkJSON is the root BENCHMARK.json, with exactly the keys the
// driver's contract names.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// runSeconds is the measured phase the driver asks for (-seconds).
const runSeconds = 24

func benchmarkSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
