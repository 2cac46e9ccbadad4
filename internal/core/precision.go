package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"varade/internal/detect"
	"varade/internal/nn"
	"varade/internal/tensor"
)

// Precision-polymorphic inference. Training always runs in float64 on the
// nn layer stack; scoring runs in cfg.Precision. For float32 and int8 the
// trained weights are compiled once into a stateless inference program
// (nn.InferenceNet), cached here and invalidated whenever the weights or
// the precision change. The float64 path keeps using the layer stack
// directly, so legacy behaviour — and bit-exactness — is untouched.
//
// Score/ScoreBatch/ScoreBatch32 take windows that need not be related.
// Consecutive windows of one stream are served by stream.go, which runs the
// same compiled float programs incrementally and caches them here too.

// inferState caches the compiled inference programs.
type inferState struct {
	mu       sync.Mutex
	net32    *nn.InferenceNet[float32] // compiled float32 program
	qnet     *nn.InferenceNet[float32] // compiled int8-weight program
	quant    nn.QuantCache             // authoritative int8 blocks (loaded or freshly quantized)
	acts     *nn.ActSet                // activation scales of the int8 lane (loaded or calibrated)
	stream32 *nn.StreamNet[float32]    // net32 restated over the series (shares its panels)
	stream64 *nn.StreamNet[float64]    // the float64 scoring program, compiled for streams only
	// gen counts the times the programs above were dropped; a live stream
	// compares it with the value it was made at to learn that the model it
	// follows now scores with other weights or at another precision.
	gen atomic.Uint64
}

// Precision reports the effective inference precision ("float64",
// "float32" or "int8").
func (m *Model) Precision() string { return m.cfg.EffectivePrecision() }

// Capabilities implements detect.Scorer: VARADE batches natively, has a
// reduced-precision engine, and can be re-targeted to any precision via
// SetPrecision.
func (m *Model) Capabilities() detect.Capabilities {
	return detect.Capabilities{
		Batched:    true,
		Reduced:    true,
		Precision:  m.Precision(),
		Precisions: []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8},
	}
}

// SetPrecision switches the precision inference runs at. Training state is
// unaffected; compiled programs are rebuilt lazily on the next Score. An
// int8 model keeps previously loaded quantized weights only if the
// precision does not round-trip through another value.
func (m *Model) SetPrecision(p string) error {
	if !ValidPrecision(p) {
		return fmt.Errorf("core: unknown precision %q (want float64, float32 or int8)", p)
	}
	if p == PrecisionFloat64 {
		p = "" // keep default-precision config JSON byte-identical to legacy
	}
	if p == m.cfg.Precision {
		return nil
	}
	m.cfg.Precision = p
	m.inf.mu.Lock()
	m.inf.net32, m.inf.qnet = nil, nil
	m.dropStreamsLocked()
	m.inf.mu.Unlock()
	return nil
}

// dropStreamsLocked drops the stream programs and retires every live
// stream made from them. Callers hold m.inf.mu.
func (m *Model) dropStreamsLocked() {
	m.inf.stream32, m.inf.stream64 = nil, nil
	m.inf.gen.Add(1)
}

// invalidateInference drops every compiled program, quantization and
// activation calibration; called when the float64 weights change
// (training, loading).
func (m *Model) invalidateInference() {
	m.inf.mu.Lock()
	m.inf.net32, m.inf.qnet, m.inf.quant, m.inf.acts = nil, nil, nil, nil
	m.dropStreamsLocked()
	m.inf.mu.Unlock()
}

// Compiled scoring programs drop the μ half of the head projection: §3.2
// uses only the predicted variance as the anomaly score, so the scoring
// Dense keeps just the log-variance rows (c..2c) of W and b — half the
// head GEMM. The float64 oracle path keeps the full head (Predict and the
// residual ablation need μ, and legacy bit-identity must hold).

// headLogVarRows returns views of the head's log-variance weight rows and
// bias entries.
func (m *Model) headLogVarRows() (w, b *tensor.Tensor) {
	c := m.cfg.Channels
	return m.head.W.Value.SliceRows(c, 2*c), m.head.B.Value.SliceRows(c, 2*c)
}

// compileScoring builds the float scoring program at precision T: the
// trunk, Flatten, and the log-variance rows of the head.
func compileScoring[T tensor.Float](m *Model) *nn.InferenceNet[T] {
	net, err := nn.Compile[T](m.trunk, m.flat)
	if err != nil {
		panic(fmt.Sprintf("core: compiling %s inference: %v", m.Precision(), err))
	}
	hw, hb := m.headLogVarRows()
	net.AppendDense(tensor.Convert[T](hw), tensor.Convert[T](hb))
	return net
}

// net32Lazy returns the compiled float32 scoring program, building it on
// first use.
func (m *Model) net32Lazy() *nn.InferenceNet[float32] {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	return m.net32Locked()
}

// net32Locked is net32Lazy for callers that hold m.inf.mu.
func (m *Model) net32Locked() *nn.InferenceNet[float32] {
	if m.inf.net32 == nil {
		m.inf.net32 = compileScoring[float32](m)
	}
	return m.inf.net32
}

// qnetLazy returns the compiled int8 scoring program, building it (and
// recording any fresh quantizations in the cache) on first use. The head's
// quantization always covers the full (2c, in) matrix — that is what Save
// persists and what int8 files restore — and the scoring op slices the
// exact stored log-variance rows out of it, so a loaded int8 model serves
// precisely the bytes in its file.
func (m *Model) qnetLazy() *nn.InferenceNet[float32] {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	if m.inf.qnet == nil {
		if m.inf.quant == nil {
			m.inf.quant = make(nn.QuantCache)
		}
		if m.inf.acts == nil {
			// Fresh (or legacy-loaded) model: activation scales calibrate
			// on the first scored batch and persist with the next Save.
			m.inf.acts = nn.NewActSet()
		}
		net, err := nn.CompileQuantizedActs(m.inf.quant, m.inf.acts, m.trunk, m.flat)
		if err != nil {
			panic(fmt.Sprintf("core: compiling int8 inference: %v", err))
		}
		c := m.cfg.Channels
		qFull := m.inf.quant.Ensure(m.head.W, m.head.OutFeatures(), m.head.InFeatures())
		_, hb := m.headLogVarRows()
		b32 := make([]float32, c)
		tensor.ConvertSlice(b32, hb.Data())
		nn.AppendDenseQuant(net, m.inf.acts, qFull.SliceRows(c, 2*c), b32)
		m.inf.qnet = net
	}
	return m.inf.qnet
}

// actSetLazy ensures the int8 program (and with it the activation-scale
// registration) exists and returns the model's ActSet — the Save path
// and the calibration report read it.
func (m *Model) actSetLazy() *nn.ActSet {
	m.qnetLazy()
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	return m.inf.acts
}

// CalibrationStat is one activation-quantization entry of the int8 lane,
// as exposed by the training tool's calibration report: the stage label,
// the observed float range behind the latched scale/zero-point, and the
// live clipping statistics (what fraction of post-calibration activation
// values saturated the int8 boundary).
type CalibrationStat struct {
	Label      string  // stage input, e.g. "conv0.in", "head.in"
	Lo, Hi     float64 // observed calibration range (0-anchored)
	Scale      float32 // 0 until calibrated
	Zero       int8
	ClippedPct float64 // % of live values clamped to ±int8 range
	Observed   int64   // live values quantized since calibration
}

// CalibrationStats returns the int8 lane's activation-quantization
// entries in compile order. Entries report Scale 0 until a batch has been
// scored at int8 (calibration is lazy); restored containers report their
// scales but a zero observed range.
func (m *Model) CalibrationStats() []CalibrationStat {
	acts := m.actSetLazy()
	entries := acts.Entries()
	stats := make([]CalibrationStat, 0, len(entries))
	for _, e := range entries {
		lo, hi := e.Range()
		frac, total := e.ClippedFraction()
		stats = append(stats, CalibrationStat{
			Label: e.Label, Lo: lo, Hi: hi,
			Scale: e.Scale, Zero: e.Zero,
			ClippedPct: 100 * frac, Observed: total,
		})
	}
	return stats
}

// quantCacheLazy ensures every quantizable weight has an int8 block and
// returns the cache (the Save path).
func (m *Model) quantCacheLazy() nn.QuantCache {
	m.qnetLazy()
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	return m.inf.quant
}

// forward32 runs the compiled reduced-precision scoring program on a
// channel-major float32 batch (N, C, W) and returns the (N, C)
// log-variance output (the μ half is never computed — see above).
func (m *Model) forward32(x *tensor.Tensor32) *tensor.Tensor32 {
	if m.Precision() == PrecisionInt8 {
		return m.qnetLazy().Forward(x)
	}
	return m.net32Lazy().Forward(x)
}

// scoresFromOut32 turns the (N, C) float32 log-variance output into per-
// window scores: the mean predicted variance over channels, exactly the
// float64 scoring rule evaluated on float32 log-variances.
func scoresFromOut32(out *tensor.Tensor32, c int) []float64 {
	n := out.Dim(0)
	scores := make([]float64, n)
	od := out.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for _, lv := range od[i*c : (i+1)*c] {
				s += math.Exp(float64(lv))
			}
			scores[i] = s / float64(c)
		}
	})
	return scores
}

// windowToInput32 converts one time-major float64 window (W, C) to a
// single-element channel-major float32 batch (1, C, W).
func windowToInput32(window *tensor.Tensor, c, w int) *tensor.Tensor32 {
	if window.Dims() != 2 || window.Dim(0) != w || window.Dim(1) != c {
		panic(fmt.Sprintf("core: window shape %v, want (%d,%d)", window.Shape(), w, c))
	}
	x := tensor.NewOf[float32](1, c, w)
	wd, xd := window.Data(), x.Data()
	for t := 0; t < w; t++ {
		for ch := 0; ch < c; ch++ {
			xd[ch*w+t] = float32(wd[t*c+ch])
		}
	}
	return x
}

// windowsToChannelMajor32 fuses the float64→float32 conversion with the
// (N, W, C) → (N, C, W) permutation, so the reduced-precision batch path
// never materialises a float64 intermediate.
func windowsToChannelMajor32(windows *tensor.Tensor) *tensor.Tensor32 {
	n, w, c := windows.Dim(0), windows.Dim(1), windows.Dim(2)
	out := tensor.NewOf[float32](n, c, w)
	wd, od := windows.Data(), out.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for t := 0; t < w; t++ {
				for ch := 0; ch < c; ch++ {
					od[(i*c+ch)*w+t] = float32(wd[(i*w+t)*c+ch])
				}
			}
		}
	})
	return out
}

// ScoreBatch32 implements detect.Scorer: it scores N time-major
// float32 windows (N, W, C) in the model's own precision. For a float64
// model the windows are widened and routed through the oracle path.
func (m *Model) ScoreBatch32(windows *tensor.Tensor32) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	if windows.Dims() != 3 || windows.Dim(1) != w || windows.Dim(2) != c {
		panic(fmt.Sprintf("core: ScoreBatch32 windows %v, want (N,%d,%d)", windows.Shape(), w, c))
	}
	if m.Precision() == PrecisionFloat64 {
		return m.ScoreBatch(tensor.Convert[float64](windows))
	}
	return scoresFromOut32(m.forward32(detect.ToChannelMajor(windows)), c)
}

// WeightBytes reports the byte size of the weights inference touches at
// the current precision — the number the edge memory projections use.
func (m *Model) WeightBytes() int {
	switch m.Precision() {
	case PrecisionFloat32:
		return m.net32Lazy().WeightBytes()
	case PrecisionInt8:
		return m.qnetLazy().WeightBytes()
	default:
		return 8 * m.NumParams()
	}
}
