package varade

// Benchmarks regenerating the paper's evaluation artefacts:
//
//	BenchmarkTable1*   — workload generator (the substrate behind Table 1)
//	BenchmarkFigure1*  — VARADE forward pass at the exact Fig. 1 scale
//	BenchmarkTable2*   — per-inference cost of all six detectors (the Hz
//	                     column of Table 2) at edge scale, plus the paper-
//	                     scale VARADE/AE/GBRF costs
//	BenchmarkFigure3*  — full-stream scoring throughput (the Hz axis of
//	                     Fig. 3)
//	BenchmarkAblation* — score definition, window and width sweeps from
//	                     DESIGN.md §4
//
// Run with: go test -bench=. -benchmem
import (
	"fmt"
	"sync"
	"testing"

	"varade/internal/core"
	"varade/internal/edge"
	"varade/internal/robot"
	"varade/internal/tensor"
)

// fixture holds lazily built, fitted detectors shared by benchmarks.
type fixture struct {
	ds   *Dataset // reduced-channel dataset
	dets []NamedDetector
	vm   *core.Model
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		cfg := SmallDatasetConfig()
		cfg.TrainSeconds, cfg.TestSeconds, cfg.Collisions = 300, 150, 12
		ds, err := GenerateDataset(cfg)
		if err != nil {
			fixErr = err
			return
		}
		idx := InterestingChannels()
		sub := &Dataset{
			Train:  SelectChannels(ds.Train, idx),
			Test:   SelectChannels(ds.Test, idx),
			Labels: ds.Labels,
			Events: ds.Events,
			Rate:   ds.Rate,
		}
		dets, err := BuildDetectors(len(idx), ScaleSmall)
		if err != nil {
			fixErr = err
			return
		}
		for _, nd := range dets {
			if err := nd.Detector.Fit(sub.Train); err != nil {
				fixErr = err
				return
			}
		}
		var vm *core.Model
		for _, nd := range dets {
			if m, ok := nd.Detector.(*core.Model); ok {
				vm = m
			}
		}
		fix = &fixture{ds: sub, dets: dets, vm: vm}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// BenchmarkTable1SimulatorStep measures the testbed workload generator:
// one 86-channel sample per iteration.
func BenchmarkTable1SimulatorStep(b *testing.B) {
	sim, err := robot.NewSimulator(robot.DefaultSimConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkFigure1PaperForward measures one forward pass of the exact
// architecture in Fig. 1 (T=512, 86 channels, 128→1024 maps).
func BenchmarkFigure1PaperForward(b *testing.B) {
	m, err := New(PaperConfig(NumChannels))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandNormal(tensor.NewRNG(1), 0, 1, 1, NumChannels, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// benchDetectorInference times one Score call on a real window.
func benchDetectorInference(b *testing.B, name string) {
	f := getFixture(b)
	for _, nd := range f.dets {
		if nd.Detector.Name() != name {
			continue
		}
		w := nd.Detector.WindowSize()
		win := f.ds.Test.SliceRows(100, 100+w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd.Detector.Score(win)
		}
		return
	}
	b.Fatalf("no detector named %q", name)
}

func BenchmarkTable2InferenceVARADE(b *testing.B)  { benchDetectorInference(b, "VARADE") }
func BenchmarkTable2InferenceARLSTM(b *testing.B)  { benchDetectorInference(b, "AR-LSTM") }
func BenchmarkTable2InferenceGBRF(b *testing.B)    { benchDetectorInference(b, "GBRF") }
func BenchmarkTable2InferenceAE(b *testing.B)      { benchDetectorInference(b, "AE") }
func BenchmarkTable2InferenceKNN(b *testing.B)     { benchDetectorInference(b, "kNN") }
func BenchmarkTable2InferenceIForest(b *testing.B) { benchDetectorInference(b, "Isolation Forest") }

// BenchmarkTable2PaperVARADE measures the exact paper-scale VARADE
// inference cost (the model behind the 15 Hz / 26 Hz rows of Table 2).
func BenchmarkTable2PaperVARADE(b *testing.B) { benchPaperScore(b, PrecisionFloat64) }

// BenchmarkTable2PaperVARADEF32 is the same window through the compiled
// float32 program — the precision an edge deployment scores at, and the
// loop bench/ measures as edge-single.
func BenchmarkTable2PaperVARADEF32(b *testing.B) { benchPaperScore(b, PrecisionFloat32) }

func benchPaperScore(b *testing.B, precision string) {
	m, err := New(PaperConfig(NumChannels))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetPrecision(precision); err != nil {
		b.Fatal(err)
	}
	win := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 512, NumChannels)
	m.Score(win) // compile the inference program outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(win)
	}
}

// paperRunner returns a paper-scale model at the given precision, compiled
// (and, at int8, calibrated), and a runner over it one sample short of its
// first score, with the sample loop that feeds it.
func paperRunner(b *testing.B, precision string) (*Runner, [][]float64) {
	m, err := New(PaperConfig(NumChannels))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetPrecision(precision); err != nil {
		b.Fatal(err)
	}
	series := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 512, NumChannels)
	m.Score(series) // compile (and calibrate) the inference program outside the timer
	rows := make([][]float64, series.Dim(0))
	for i := range rows {
		rows[i] = series.Row(i).Data()
	}
	r := NewRunner(m, NumChannels)
	for _, row := range rows[:len(rows)-1] {
		r.Push(row)
	}
	return r, rows
}

// benchRunnerPushPaper measures the §4.3 loop at paper scale: one
// steady-state Runner.Push, which extends the stream by one column per
// layer.
func benchRunnerPushPaper(b *testing.B, precision string) {
	r, rows := paperRunner(b, precision)
	r.Push(rows[len(rows)-1]) // the first score warms the stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(rows[i%len(rows)])
	}
}

func BenchmarkRunnerPushPaperF32(b *testing.B)  { benchRunnerPushPaper(b, PrecisionFloat32) }
func BenchmarkRunnerPushPaperF64(b *testing.B)  { benchRunnerPushPaper(b, PrecisionFloat64) }
func BenchmarkRunnerPushPaperInt8(b *testing.B) { benchRunnerPushPaper(b, PrecisionInt8) }

// BenchmarkStreamExtendPaperF32 prices a steady-state paper-scale float32
// stream extended k rows at a time (one PushBatch, one Extend(k)): the
// per-row cost of a backlog or a co-batched flush. One to seven rows run
// the one-row kernels once per row; 8 rows a full tile.
func BenchmarkStreamExtendPaperF32(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rows=%d", k), func(b *testing.B) {
			r, rows := paperRunner(b, PrecisionFloat32)
			r.Push(rows[len(rows)-1]) // the first score warms the stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i * k % (len(rows) - k)
				r.PushBatch(rows[j : j+k])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/row")
		})
	}
}

// benchRunnerWarmPaper measures the first score of a cold stream: one
// batched pass over the 511 buffered rows, then the scoring sample. Every
// stream pays it once, and again after the model is retrained, reloaded or
// switched to another precision.
func benchRunnerWarmPaper(b *testing.B, precision string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, rows := paperRunner(b, precision)
		b.StartTimer()
		r.Push(rows[len(rows)-1])
	}
}

func BenchmarkRunnerWarmPaperF32(b *testing.B)  { benchRunnerWarmPaper(b, PrecisionFloat32) }
func BenchmarkRunnerWarmPaperInt8(b *testing.B) { benchRunnerWarmPaper(b, PrecisionInt8) }

// benchBatchedEdge prices the engine-batch call: one
// ScoreSeriesBatched of 256 windows through a compiled edge model of
// random weights (training does not change the arithmetic) over 17
// channels, at one precision. Each call makes a fresh stream and warms it,
// so it also shows what a stream costs to set up.
func benchBatchedEdge(b *testing.B, precision string) {
	m, err := New(EdgeConfig(17))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetPrecision(precision); err != nil {
		b.Fatal(err)
	}
	series := tensor.RandNormal(tensor.NewRNG(3), 0, 1, 256+m.WindowSize()-1, 17)
	ScoreSeriesBatched(m, series) // compile (and calibrate) outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreSeriesBatched(m, series)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/window")
}

func BenchmarkScoreSeriesBatchedEdgeF64(b *testing.B)  { benchBatchedEdge(b, PrecisionFloat64) }
func BenchmarkScoreSeriesBatchedEdgeF32(b *testing.B)  { benchBatchedEdge(b, PrecisionFloat32) }
func BenchmarkScoreSeriesBatchedEdgeInt8(b *testing.B) { benchBatchedEdge(b, PrecisionInt8) }

// BenchmarkTable2PaperGBRF measures paper-scale GBRF forecasting cost
// (30 trees per channel, 86 channels).
func BenchmarkTable2PaperGBRF(b *testing.B) {
	cfg := SmallDatasetConfig()
	cfg.TrainSeconds, cfg.TestSeconds, cfg.Collisions = 120, 30, 1
	ds, err := GenerateDataset(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := GBRFConfig{
		Window: 4, Channels: NumChannels, Trees: 30, LearningRate: 0.3,
		Tree:   gbrfTreeConfig(),
		Stride: 2, Seed: 1,
	}
	gm, err := NewGBRF(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := gm.Fit(ds.Train.SliceRows(0, 600)); err != nil {
		b.Fatal(err)
	}
	win := ds.Test.SliceRows(10, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm.Score(win)
	}
}

// BenchmarkFigure3ScoreStream measures full-stream scoring throughput —
// the quantity plotted on Fig. 3's x axis — for the trained edge VARADE,
// through the legacy one-window-at-a-time loop.
func BenchmarkFigure3ScoreStream(b *testing.B) {
	f := getFixture(b)
	segment := f.ds.Test.SliceRows(0, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreSeries(f.vm, segment)
	}
}

// BenchmarkFigure3ScoreStreamBatched is the same workload through the
// batched parallel engine (ScoreSeriesBatched → Model.ScoreBatch → im2col
// GEMM); the ratio against BenchmarkFigure3ScoreStream is the end-to-end
// speedup of the batched inference path.
func BenchmarkFigure3ScoreStreamBatched(b *testing.B) {
	f := getFixture(b)
	segment := f.ds.Test.SliceRows(0, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreSeriesBatched(f.vm, segment)
	}
}

// benchScoreStreamPrecision runs the batched score stream with the fitted
// VARADE model switched to the given inference precision. The ratio of
// the F32 variant against BenchmarkFigure3ScoreStreamBatched is the
// precision axis's end-to-end win on the hot path.
func benchScoreStreamPrecision(b *testing.B, precision string) {
	f := getFixture(b)
	if err := f.vm.SetPrecision(precision); err != nil {
		b.Fatal(err)
	}
	defer f.vm.SetPrecision(PrecisionFloat64)
	segment := f.ds.Test.SliceRows(0, 120)
	ScoreSeriesBatched(f.vm, segment) // compile the inference program outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreSeriesBatched(f.vm, segment)
	}
}

// BenchmarkFigure3ScoreStreamF32 is the float32 fast path.
func BenchmarkFigure3ScoreStreamF32(b *testing.B) {
	benchScoreStreamPrecision(b, PrecisionFloat32)
}

// BenchmarkFigure3ScoreStreamInt8 is the quantized path (int8 weights and
// activations, int32 accumulation).
func BenchmarkFigure3ScoreStreamInt8(b *testing.B) {
	benchScoreStreamPrecision(b, PrecisionInt8)
}

// BenchmarkFigure3ScoreStreamBatchedLong scores a full-length test split
// per iteration, the regime where chunked window materialisation and the
// worker pool dominate; allocations per scored window should stay flat as
// the stream grows.
func BenchmarkFigure3ScoreStreamBatchedLong(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreSeriesBatched(f.vm, f.ds.Test)
	}
}

// BenchmarkAblationScoreVariance and ...Residual time the two scoring
// rules of the central ablation on the same network.
func BenchmarkAblationScoreVariance(b *testing.B) {
	f := getFixture(b)
	w := f.vm.WindowSize()
	win := f.ds.Test.SliceRows(50, 50+w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.vm.Score(win)
	}
}

func BenchmarkAblationScoreResidual(b *testing.B) {
	f := getFixture(b)
	rs := &ResidualScorer{Model: f.vm}
	w := rs.WindowSize()
	win := f.ds.Test.SliceRows(50, 50+w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Score(win)
	}
}

// BenchmarkAblationWindow sweeps the context length T — the §3.1
// compactness/latency trade-off (inference cost only; accuracy is in
// cmd/varade-bench -exp ablation-window).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("T=%d", w), func(b *testing.B) {
			cfg := EdgeConfig(17)
			cfg.Window = w
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			win := tensor.RandNormal(tensor.NewRNG(3), 0, 1, w, 17)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Score(win)
			}
		})
	}
}

// BenchmarkAblationWidth sweeps the feature-map width.
func BenchmarkAblationWidth(b *testing.B) {
	for _, maps := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("maps=%d", maps), func(b *testing.B) {
			cfg := EdgeConfig(17)
			cfg.BaseMaps = maps
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			win := tensor.RandNormal(tensor.NewRNG(4), 0, 1, cfg.Window, 17)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Score(win)
			}
		})
	}
}

// BenchmarkTrainingEpoch measures one ELBO training epoch of the edge
// model on the fixture's training split.
func BenchmarkTrainingEpoch(b *testing.B) {
	f := getFixture(b)
	cfg := EdgeConfig(f.ds.Train.Dim(1))
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.FitWindows(f.ds.Train, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeProfile measures the board-model mapping itself (it must be
// negligible next to the measured workloads it rescales).
func BenchmarkEdgeProfile(b *testing.B) {
	p := XavierNX()
	w := Workload{Name: "x", Kind: edge.KindNeural, HostSecPerInf: 0.01, ModelBytes: 1e7, WorkingSetBytes: 1e5, AUCROC: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Profile(w)
	}
}

// gbrfTreeConfig returns the timing-fit tree growth settings (see
// harness.go for why MaxFeatures is capped for cost measurement).
func gbrfTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 3, MinSamplesLeaf: 4, MaxFeatures: 24}
}
