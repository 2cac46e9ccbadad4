package core

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"varade/internal/detect"
	"varade/internal/eval"
	"varade/internal/modelio"
	"varade/internal/tensor"
)

// trainedTiny returns a briefly trained TinyConfig model and a test
// series with an obvious disturbance.
func trainedTiny(t *testing.T, channels int) (*Model, *tensor.Tensor) {
	t.Helper()
	cfg := TinyConfig(channels)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(11)
	train := tensor.New(400, channels)
	td := train.Data()
	for i := range td {
		td[i] = rng.NormFloat64() * 0.1
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	if err := m.FitWindows(train, tc); err != nil {
		t.Fatal(err)
	}
	test := tensor.New(120, channels)
	sd := test.Data()
	for i := range sd {
		sd[i] = rng.NormFloat64() * 0.1
	}
	for i := 60; i < 70; i++ { // injected transient
		for ch := 0; ch < channels; ch++ {
			sd[i*channels+ch] += 2
		}
	}
	return m, test
}

// TestFloat32ScoresWithinTolerance asserts the acceptance criterion: the
// float32 path agrees with the float64 oracle within a stated per-window
// tolerance, relative to the score scale.
func TestFloat32ScoresWithinTolerance(t *testing.T) {
	m, test := trainedTiny(t, 3)
	oracle := detect.ScoreSeriesBatched(m, test)

	if err := m.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	fast := detect.ScoreSeriesBatched(m, test)
	if len(fast) != len(oracle) {
		t.Fatalf("score lengths %d vs %d", len(fast), len(oracle))
	}
	const relTol = 1e-4 // float32 has ~7 decimal digits; the net is 3 layers deep
	worst := 0.0
	for i := range oracle {
		d := math.Abs(fast[i]-oracle[i]) / math.Max(1e-12, math.Abs(oracle[i]))
		if d > worst {
			worst = d
		}
	}
	if worst > relTol {
		t.Fatalf("float32 scores deviate rel %.3g from float64 oracle (tol %g)", worst, relTol)
	}
	if worst == 0 {
		t.Fatal("float32 path bit-identical to float64 — dispatch is not switching precision")
	}
	t.Logf("float32 vs float64 max relative score diff: %.3g", worst)

	// Scalar and batched paths must agree at reduced precision too.
	w := m.WindowSize()
	win := test.SliceRows(50, 50+w)
	if s1, s2 := m.Score(win), m.ScoreBatch(windowsOf(win))[0]; s1 != s2 {
		t.Fatalf("float32 Score %g != ScoreBatch %g", s1, s2)
	}
}

func windowsOf(win *tensor.Tensor) *tensor.Tensor {
	w, c := win.Dim(0), win.Dim(1)
	out := tensor.New(1, w, c)
	copy(out.Data(), win.Data())
	return out
}

// TestInt8SaveLoadRoundTrip asserts int8 payloads round-trip exactly: the
// reloaded model serves the identical quantized weights, so scores match
// bit for bit, and a re-save reproduces an identical payload.
func TestInt8SaveLoadRoundTrip(t *testing.T) {
	m, test := trainedTiny(t, 3)
	if err := m.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	qScores := detect.ScoreSeriesBatched(m, test)

	dir := t.TempDir()
	path := filepath.Join(dir, "model-int8.vmf")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	kind, dtype, err := modelio.Sniff(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != modelio.KindVARADE || dtype != modelio.DTypeInt8 {
		t.Fatalf("sniffed kind %q dtype %q", kind, dtype)
	}

	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionInt8 {
		t.Fatalf("loaded precision %q", loaded.Precision())
	}
	got := detect.ScoreSeriesBatched(loaded, test)
	for i := range qScores {
		if got[i] != qScores[i] {
			t.Fatalf("int8 reload score %d: %g vs %g", i, got[i], qScores[i])
		}
	}

	// Re-saving the loaded model must produce an identical payload.
	path2 := filepath.Join(dir, "model-int8-resave.vmf")
	if err := loaded.Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("int8 re-save is not byte-identical")
	}
}

// TestInt8LegacyContainerNoActs guards the backward-compat acceptance
// criterion: an int8 model saved before any scoring carries no
// calibrated activation scales — byte-compatible with pre-activation-
// quantization VNNQ writers — and such a container must still load and
// score. Calibration is deterministic on the first batch, so the loaded
// model's scores match the in-process model exactly.
func TestInt8LegacyContainerNoActs(t *testing.T) {
	m, test := trainedTiny(t, 3)
	if err := m.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy-q.vmf")
	if err := m.Save(path); err != nil { // nothing scored yet: no ACTS section
		t.Fatal(err)
	}
	if _, dtype, err := modelio.Sniff(path); err != nil || dtype != modelio.DTypeInt8 {
		t.Fatalf("sniffed dtype %q err %v", dtype, err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	want := detect.ScoreSeriesBatched(m, test)
	got := detect.ScoreSeriesBatched(loaded, test)
	if len(got) != len(want) {
		t.Fatalf("score lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("legacy int8 reload score %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestInt8AUCGapWithinOnePercent asserts the accuracy acceptance gate:
// on a labeled series with injected transients, the int8 lane's AUC-ROC
// stays within 0.01 of the float64 oracle's.
func TestInt8AUCGapWithinOnePercent(t *testing.T) {
	m, _ := trainedTiny(t, 3)
	rng := tensor.NewRNG(23)
	const n, ch = 600, 3
	test := tensor.New(n, ch)
	sd := test.Data()
	for i := range sd {
		sd[i] = rng.NormFloat64() * 0.1
	}
	anom := make([]bool, n)
	for _, start := range []int{100, 250, 400, 520} {
		for i := start; i < start+8; i++ {
			for c := 0; c < ch; c++ {
				sd[i*ch+c] += 1.5
			}
			anom[i] = true
		}
	}
	// Scores are per time step; the window ending at step i covers
	// [i-w+1, i], so a step is positive when its window saw a transient.
	scores64 := detect.ScoreSeriesBatched(m, test)
	w := m.WindowSize()
	labels := make([]bool, len(scores64))
	for i := range labels {
		for j := max(0, i-w+1); j <= i; j++ {
			if anom[j] {
				labels[i] = true
				break
			}
		}
	}
	auc64 := eval.AUCROC(scores64, labels)
	if err := m.SetPrecision(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	auc8 := eval.AUCROC(detect.ScoreSeriesBatched(m, test), labels)
	if gap := math.Abs(auc64 - auc8); gap > 0.01 {
		t.Fatalf("int8 AUC %.4f vs float64 %.4f: gap %.4f above 1%%", auc8, auc64, gap)
	}
	t.Logf("AUC float64 %.4f, int8 %.4f", auc64, auc8)
}

// TestFloat32SaveLoadRoundTrip checks the float32 container: scores of the
// reloaded model match the saver's float32 scores exactly.
func TestFloat32SaveLoadRoundTrip(t *testing.T) {
	m, test := trainedTiny(t, 2)
	if err := m.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	want := detect.ScoreSeriesBatched(m, test)
	path := filepath.Join(t.TempDir(), "model-f32.vmf")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	_, dtype, err := modelio.Sniff(path)
	if err != nil {
		t.Fatal(err)
	}
	if dtype != modelio.DTypeFloat32 {
		t.Fatalf("sniffed dtype %q", dtype)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionFloat32 {
		t.Fatalf("loaded precision %q", loaded.Precision())
	}
	got := detect.ScoreSeriesBatched(loaded, test)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float32 reload score %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestFloat64SaveStaysLegacyFormat guards the compatibility acceptance
// criterion: a default-precision save still writes the v1 container whose
// bytes a pre-precision reader would accept, and legacy float64 files load
// and score bit-identically after a precision round trip.
func TestFloat64SaveStaysLegacyFormat(t *testing.T) {
	m, test := trainedTiny(t, 2)
	oracle := detect.ScoreSeriesBatched(m, test)
	path := filepath.Join(t.TempDir(), "model.vmf")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != modelio.Magic {
		t.Fatalf("default-precision save wrote magic %q, want legacy %q", b[:4], modelio.Magic)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionFloat64 {
		t.Fatalf("loaded precision %q", loaded.Precision())
	}
	got := detect.ScoreSeriesBatched(loaded, test)
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("legacy reload score %d: %g vs %g", i, got[i], oracle[i])
		}
	}

	// Flipping a loaded float64 model to float32 and back must restore the
	// exact oracle scores (the float64 weights are untouched).
	if err := loaded.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	_ = detect.ScoreSeriesBatched(loaded, test)
	if err := loaded.SetPrecision(PrecisionFloat64); err != nil {
		t.Fatal(err)
	}
	back := detect.ScoreSeriesBatched(loaded, test)
	for i := range oracle {
		if back[i] != oracle[i] {
			t.Fatalf("precision round-trip drifted score %d", i)
		}
	}
}

// TestCapabilitiesFloat32: a float32 model reports a batched engine at
// float32 that can be re-targeted to every precision VARADE runs at, and
// to nothing else.
func TestCapabilitiesFloat32(t *testing.T) {
	m, _ := trainedTiny(t, 3)
	if err := m.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	var _ detect.Scorer = m
	caps := m.Capabilities()
	if !caps.Batched || caps.Precision != PrecisionFloat32 {
		t.Fatalf("capabilities %+v, want batched float32", caps)
	}
	if !caps.Supports(PrecisionInt8) || caps.Supports("bf16") {
		t.Fatalf("capability precision set wrong: %+v", caps.Precisions)
	}
}

// TestWeightBytesPinned: WeightBytes is the logical weight footprint — one
// copy of every element, no tile padding — whatever layout the compiled
// ops hold their weights in. The values are those of the releases before
// compile-time panel packing, at paper scale (where the float32 program
// keeps its four widest convolutions in panel form only) and at edge
// scale (where every matrix keeps its rows beside its panels).
func TestWeightBytesPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want map[string]int
	}{
		{PaperConfig(86), map[string]int{PrecisionFloat64: 36318560, PrecisionFloat32: 17454424, PrecisionInt8: 8868038}},
		{EdgeConfig(17), map[string]int{PrecisionFloat64: 17680, PrecisionFloat32: 6596, PrecisionInt8: 5177}},
	} {
		m, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range c.want {
			if err := m.SetPrecision(p); err != nil {
				t.Fatal(err)
			}
			if got := m.WeightBytes(); got != want {
				t.Errorf("T=%d %s: WeightBytes %d, want %d", c.cfg.Window, p, got, want)
			}
		}
	}
}

// meanExpLogVar is the reference score: the mean exp of the log-variance
// the layer stack (Forward) predicts for each channel-major window.
func meanExpLogVar(m *Model, windows *tensor.Tensor) []float64 {
	_, logVar := m.Forward(detect.ToChannelMajor(windows))
	c := m.cfg.Channels
	want := make([]float64, windows.Dim(0))
	for i := range want {
		s := 0.0
		for _, lv := range logVar.Data()[i*c : (i+1)*c] {
			s += math.Exp(lv)
		}
		want[i] = s / float64(c)
	}
	return want
}

// TestFloat64ScoresMatchLayerStack keeps the layer stack the reference:
// at float64, Score and ScoreBatch — which run the compiled program —
// return the mean exp of the log-variance Forward computes, bit
// for bit, on the tiny, edge and a six-layer model at batch sizes 1, 9 and
// 256.
// Streams restate that same program, and a model that moves to float32
// keeps no float64 program.
func TestFloat64ScoresMatchLayerStack(t *testing.T) {
	for _, cfg := range []Config{TinyConfig(3), EdgeConfig(17), {Window: 64, Channels: 2, BaseMaps: 6, KLWeight: 0.1, Seed: 3}} {
		m := jitteredModel(t, cfg)
		w, c := cfg.Window, cfg.Channels
		for _, n := range []int{1, 9, 256} {
			wins := tensor.RandNormal(tensor.NewRNG(uint64(n)), 0, 1, n, w, c)
			want := meanExpLogVar(m, wins)
			got := map[string][]float64{"ScoreBatch": m.ScoreBatch(wins), "Score": nil}
			for i := 0; i < n; i++ {
				got["Score"] = append(got["Score"], m.Score(wins.SliceRows(i, i+1).Reshape(w, c)))
			}
			for path, scores := range got {
				for i, v := range scores {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("T=%d C=%d N=%d: %s %d = %x, layer stack %x", w, c, n, path, i, v, want[i])
					}
				}
			}
		}
		net := m.inf.net64
		if net == nil || m.NewStream() == nil || m.inf.net64 != net {
			t.Fatalf("T=%d: the float64 stream does not restate the scoring program", w)
		}
		if err := m.SetPrecision(PrecisionFloat32); err != nil {
			t.Fatal(err)
		}
		m.ScoreBatch(tensor.RandNormal(tensor.NewRNG(1), 0, 1, 2, w, c))
		if m.inf.net64 != nil || m.inf.stream64 != nil {
			t.Fatalf("T=%d: a float64 program stayed cached at float32", w)
		}
	}
}

// TestScoreConcurrentEveryPrecision scores one model from four goroutines
// at once, at every precision (run under -race in CI): the compiled
// programs hold no per-call state, the int8 lane's first, calibrating call
// races the others, and every goroutine gets what a twin model returns
// when scored sequentially.
func TestScoreConcurrentEveryPrecision(t *testing.T) {
	cfg := EdgeConfig(17)
	w, c := cfg.Window, cfg.Channels
	// Every goroutine scores the batch first, so whichever call calibrates
	// the int8 lane calibrates it on that batch.
	wins := tensor.RandNormal(tensor.NewRNG(31), 0, 1, 9, w, c)
	score := func(m *Model) [][]float64 {
		all := [][]float64{m.ScoreBatch(wins)}
		for i := 0; i < wins.Dim(0); i++ {
			all = append(all, []float64{m.Score(wins.SliceRows(i, i+1).Reshape(w, c))})
		}
		return all
	}
	for _, p := range []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8} {
		twin, shared := jitteredModel(t, cfg), jitteredModel(t, cfg)
		for _, m := range []*Model{twin, shared} {
			if err := m.SetPrecision(p); err != nil {
				t.Fatal(err)
			}
		}
		want := score(twin)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for k, scores := range score(shared) {
						for i, v := range scores {
							if v != want[k][i] {
								t.Errorf("%s goroutine %d rep %d: call %d score %d = %g, sequential %g", p, g, rep, k, i, v, want[k][i])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
