package main

import (
	"sort"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// Probes replay a workload's own shapes through one layer's public
// function, where the end-to-end path hides that layer's cost. They run in
// the traced run only, after the measured phase, and their inputs are
// seeded constants: a probe prices code, not data.

// perCall returns the median time of one fn() over nine batches, each long
// enough (≥ 5 ms) that the clock reads are noise.
func perCall(fn func()) time.Duration {
	fn() // compile, pack, fill pools
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 5*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	batches := make([]time.Duration, 9)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = time.Since(t0) / time.Duration(n)
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i] < batches[j] })
	return batches[len(batches)/2]
}

func nsPer(d time.Duration, units int) float64 { return float64(d.Nanoseconds()) / float64(units) }

func normal[T tensor.Float](rng *tensor.RNG, shape ...int) *tensor.Dense[T] {
	t := tensor.NewOf[T](shape...)
	d := t.Data()
	for i := range d {
		d[i] = T(rng.NormFloat64())
	}
	return t
}

// probes maps a workload to the probes of the layers its end-to-end path
// runs through but does not show.
var probes = map[string]func(L map[string]float64) error{
	"edge-single":  paperProbes,
	"engine-batch": batchProbes,
	"serve-paced":  servingProbes,
	"routed-paced": servingProbes,
}

// scoreProbe times fn on a seeded model of cfg at each precision.
func scoreProbe(cfg core.Config, ps []string, fn func(m *core.Model), each func(precision string, d time.Duration)) error {
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := m.SetPrecision(p); err != nil {
			return err
		}
		each(p, perCall(func() { fn(m) }))
	}
	return nil
}

// paperProbes: the paper-scale model at batch 1.
func paperProbes(L map[string]float64) error {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := tensor.NewRNG(1)
	cfg := core.PaperConfig(paperChannels)

	// The largest layer: the last convolution, 2 output positions of
	// 2·1024 inputs against 1024 maps — 8 MB of float32 weights per call.
	maps := cfg.LayerMaps()
	last, prev := maps[len(maps)-1], maps[len(maps)-2]
	a, b := normal[float32](rng, 2, 2*prev), normal[float32](rng, last, 2*prev)
	dst := tensor.NewOf[float32](2, last)
	L["tensor.gemm_ms.paper.f32.n1"] = ms(perCall(func() { tensor.MatMulTransBInto(dst, a, b) }))

	window := normal[float64](rng, cfg.Window, paperChannels)
	err := scoreProbe(cfg, precisions, func(m *core.Model) { m.Score(window) }, func(p string, d time.Duration) {
		L["core.score_ms.paper."+short(p)] = ms(d)
	})
	if err != nil {
		return err
	}
	// Runner.Push minus Score at the precision edge-single runs: the ring
	// push plus materialising the 512×86 window.
	row := window.Row(0).Data()
	var r *stream.Runner
	return scoreProbe(cfg, precisions[1:2], func(m *core.Model) {
		if r == nil {
			r = stream.NewRunner(m, paperChannels)
			for i := 0; i < cfg.Window-1; i++ {
				r.Push(row)
			}
		}
		r.Push(row)
	}, func(_ string, d time.Duration) {
		L["stream.runner_push_us.paper"] = (ms(d) - L["core.score_ms.paper.f32"]) * 1e3
	})
}

// batchProbes: the edge-scale model at a full 256-window chunk.
func batchProbes(L map[string]float64) error {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := tensor.NewRNG(2)
	cfg := core.EdgeConfig(edgeChannels)
	const n = batchWindows

	// The largest layer: the first convolution, 4 positions per window of
	// 2·17 inputs against 16 maps. The int8 lane packs one extra all-ones
	// output channel (the activation row sum), so its GEMM has 17 rows.
	positions, k, maps := cfg.Window/2, 2*edgeChannels, cfg.LayerMaps()[0]
	rows := n * positions
	a64, b64 := normal[float64](rng, rows, k), normal[float64](rng, maps+1, k)
	d64 := tensor.NewOf[float64](rows, maps)
	L["tensor.gemm_ns_per_window.edge.f64"] = nsPer(perCall(func() { tensor.MatMulTransBInto(d64, a64, b64.SliceRows(0, maps)) }), n)
	a32, b32 := tensor.Convert[float32](a64), tensor.Convert[float32](b64)
	d32 := tensor.NewOf[float32](rows, maps)
	L["tensor.gemm_ns_per_window.edge.f32"] = nsPer(perCall(func() { tensor.MatMulTransBInto(d32, a32, b32.SliceRows(0, maps)) }), n)

	x8, w8 := make([]int8, rows*k), make([]int8, (maps+1)*k)
	tensor.QuantizeAffine(w8, b32.Data(), 32, 0)
	packed := make([]int8, tensor.QGemmPackedLen(maps+1, k))
	tensor.QGemmPackB(packed, w8, maps+1, k)
	acc := make([]int32, rows*(maps+1))
	L["tensor.quantize_ns_per_window.edge"] = nsPer(perCall(func() { tensor.QuantizeAffine(x8, a32.Data(), 32, 0) }), n)
	L["tensor.qgemm_ns_per_window.edge.int8"] = nsPer(perCall(func() { tensor.QGemmTransB(acc, x8, packed, rows, k, maps+1) }), n)
	zw, cw := make([]int32, maps), make([]int32, maps)
	scale, bias := make([]float32, maps), make([]float32, maps)
	for j := range scale {
		scale[j] = 1e-3
	}
	next := make([]int8, rows*maps)
	L["tensor.requant_ns_per_window.edge"] = nsPer(perCall(func() {
		tensor.RequantPairs2(next, acc, maps+1, rows/2, maps, zw, cw, scale, bias, 0, true)
	}), n)

	windows, _ := detect.Windows(normal[float64](rng, n+cfg.Window+1, edgeChannels), cfg.Window, 1)
	windows = windows.SliceRows(0, n)
	err := scoreProbe(cfg, precisions, func(m *core.Model) { m.ScoreBatch(windows) }, func(p string, d time.Duration) {
		L["core.scorebatch_ns_per_window."+short(p)] = nsPer(d, n)
	})
	if err != nil {
		return err
	}
	// ScoreSeriesBatched minus ScoreBatch at the same N and precision:
	// slicing the series into windows.
	series := normal[float64](rng, n+cfg.Window-1, edgeChannels)
	L["detect.chunks_per_kwindow"] = 1e3 * float64((n+detect.BatchChunk-1)/detect.BatchChunk) / n
	return scoreProbe(cfg, precisions[1:2], func(m *core.Model) { detect.ScoreSeriesBatched(m, series) }, func(_ string, d time.Duration) {
		L["detect.windowing_ns_per_window"] = nsPer(d, n) - L["core.scorebatch_ns_per_window.f32"]
	})
}

// servingProbes: the paced batch regime (8 windows), the wire codec on the
// workload's 8-row 17-channel frames, and one telemetry observation.
func servingProbes(L map[string]float64) error {
	rng := tensor.NewRNG(3)
	cfg := core.EdgeConfig(edgeChannels)
	windows, _ := detect.Windows(normal[float64](rng, pacedFrameRows+cfg.Window+1, edgeChannels), cfg.Window, 1)
	windows = windows.SliceRows(0, pacedFrameRows)
	err := scoreProbe(cfg, precisions[1:], func(m *core.Model) { m.ScoreBatch(windows) }, func(p string, d time.Duration) {
		L["core.scorebatch_ns_per_window.n8."+short(p)] = nsPer(d, pacedFrameRows)
	})
	if err != nil {
		return err
	}

	frame := make([][]float64, pacedFrameRows)
	for i := range frame {
		frame[i] = normal[float64](rng, edgeChannels).Data()
	}
	payload, err := stream.EncodeSamplesPayload(frame, edgeChannels)
	if err != nil {
		return err
	}
	scores := make([]stream.Score, pacedFrameRows)
	for i := range scores {
		scores[i] = stream.Score{Index: i, Value: rng.Float64()}
	}
	blob := stream.EncodeScoresPayload(scores)
	// The probes' inputs are well-formed by construction, so the codec's
	// errors are dropped inside the timed calls.
	L["stream.encode_samples_ns_per_row"] = nsPer(perCall(func() { _, _ = stream.EncodeSamplesPayload(frame, edgeChannels) }), pacedFrameRows)
	L["stream.decode_samples_ns_per_row"] = nsPer(perCall(func() { _, _ = stream.DecodeSamplesPayload(payload, edgeChannels) }), pacedFrameRows)
	L["stream.encode_scores_ns_per_score"] = nsPer(perCall(func() { stream.EncodeScoresPayload(scores) }), pacedFrameRows)
	L["stream.decode_scores_ns_per_score"] = nsPer(perCall(func() { _, _ = stream.DecodeScoresPayload(blob) }), pacedFrameRows)

	h := obs.NewRegistry().Histogram("bench_probe_ns", "probe")
	v := int64(0)
	L["obs.observe_ns"] = nsPer(perCall(func() { v += 977; h.Record(v & 0xfffff) }), 1)
	return nil
}
