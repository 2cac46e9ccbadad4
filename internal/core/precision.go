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
// nn layer stack; scoring runs in cfg.Precision, and at every precision it
// runs one compiled, stateless inference program (nn.InferenceNet): the
// trunk, Flatten and the log-variance rows of the head, with weights
// converted to float64, float32 or int8 once. The program is cached here
// and dropped whenever the weights or the precision change. Only Predict,
// ResidualScorer and training, which need μ, run the layer stack itself —
// which also stays the reference the float64 program is tested against.
//
// Score/ScoreBatch take windows that need not be related.
// Consecutive windows of one stream are served by stream.go, which runs the
// same compiled programs incrementally and caches them here too.

// inferState caches the compiled inference programs.
type inferState struct {
	mu       sync.Mutex
	net64    *nn.InferenceNet[float64] // compiled float64 program
	net32    *nn.InferenceNet[float32] // compiled float32 program
	qnet     *nn.InferenceNet[float32] // compiled int8 program
	quant    nn.QuantCache             // authoritative int8 blocks (loaded or freshly quantized)
	acts     *nn.ActSet                // activation scales of the int8 lane (loaded or calibrated)
	stream64 *nn.StreamNet[float64]    // net64 restated over the series (shares its panels)
	stream32 *nn.StreamNet[float32]    // net32 likewise
	stream8  *nn.StreamNet[float32]    // qnet likewise, once calibrated
	// gen counts the times the programs above were dropped; a live stream
	// compares it with the value it was made at to learn that the model it
	// follows now scores with other weights or at another precision.
	gen atomic.Uint64
}

// Precision reports the effective inference precision ("float64",
// "float32" or "int8").
func (m *Model) Precision() string { return m.cfg.EffectivePrecision() }

// Capabilities implements detect.Scorer: VARADE batches natively and can
// be re-targeted to any precision via SetPrecision.
func (m *Model) Capabilities() detect.Capabilities {
	return detect.Capabilities{
		Batched:    true,
		Precision:  m.Precision(),
		Precisions: []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8},
	}
}

// SetPrecision switches the precision inference runs at. Training state is
// unaffected. Every compiled program is dropped — none of another
// precision stays resident — and the new precision's is built lazily on
// the next Score; the int8 weight blocks and activation scales are kept,
// so a round trip through another precision serves them unchanged.
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
	m.dropProgramsLocked()
	m.inf.mu.Unlock()
	return nil
}

// dropProgramsLocked drops every compiled program and retires every live
// stream made from one. The precision changed or the weights did, so no
// cached program is the one the model now scores with. Callers hold
// m.inf.mu.
func (m *Model) dropProgramsLocked() {
	m.inf.net64, m.inf.net32, m.inf.qnet = nil, nil, nil
	m.inf.stream64, m.inf.stream32, m.inf.stream8 = nil, nil, nil
	m.inf.gen.Add(1)
}

// invalidateInference drops every compiled program, quantization and
// activation calibration; called when the float64 weights change
// (training, loading).
func (m *Model) invalidateInference() {
	m.inf.mu.Lock()
	m.inf.quant, m.inf.acts = nil, nil
	m.dropProgramsLocked()
	m.inf.mu.Unlock()
}

// Compiled scoring programs drop the μ half of the head projection: §3.2
// uses only the predicted variance as the anomaly score, so the scoring
// Dense keeps just the log-variance rows (c..2c) of W and b — half the
// head GEMM. The layer stack keeps the full head (Predict and the residual
// ablation need μ); each output row's dot product is the same either way,
// so float64 scores are those of the layer stack bit for bit.

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

// floatProgramLocked returns the float program cached in slot, compiling
// it on first use. Callers hold m.inf.mu.
func floatProgramLocked[T tensor.Float](m *Model, slot **nn.InferenceNet[T]) *nn.InferenceNet[T] {
	if *slot == nil {
		*slot = compileScoring[T](m)
	}
	return *slot
}

// floatProgram is floatProgramLocked for callers that do not hold m.inf.mu.
func floatProgram[T tensor.Float](m *Model, slot **nn.InferenceNet[T]) *nn.InferenceNet[T] {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	return floatProgramLocked(m, slot)
}

// qnetLocked returns the compiled int8 scoring program, building it (and
// recording any fresh quantizations in the cache) on first use. Callers
// hold m.inf.mu. The head's quantization always covers the full (2c, in)
// matrix — that is what Save persists and what int8 files restore — and
// the scoring op slices the exact stored log-variance rows out of it, so a
// loaded int8 model serves precisely the bytes in its file.
func (m *Model) qnetLocked() *nn.InferenceNet[float32] {
	if m.inf.qnet == nil {
		if m.inf.quant == nil {
			m.inf.quant = make(nn.QuantCache)
		}
		if m.inf.acts == nil {
			// Fresh (or legacy-loaded) model: activation scales calibrate
			// on the first scored batch and persist with the next Save.
			m.inf.acts = nn.NewActSet()
		}
		net, err := nn.CompileQuantized(m.inf.quant, m.inf.acts, m.trunk, m.flat)
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

// qnetFor returns the int8 scoring program ready to score x. A model whose
// activation scales are not known yet — fresh, or loaded from a container
// without them — calibrates them on x first, so x scores as every later
// batch does.
func (m *Model) qnetFor(x *tensor.Tensor32) *nn.InferenceNet[float32] {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	net := m.qnetLocked()
	if !m.inf.acts.Calibrated() {
		if err := m.inf.acts.Calibrate(m.servedNet32Locked(), x); err != nil {
			panic(fmt.Sprintf("core: calibrating int8 inference: %v", err))
		}
	}
	return net
}

// servedNet32Locked compiles a transient float32 scoring program over the
// weights the int8 lane serves — every quantized weight dequantized, every
// other parameter as it is — for calibration to observe activations
// through. It depends on the quantized blocks, not on the training weights
// behind them, so a model loaded from its own int8 container calibrates
// exactly as the model that wrote it. Callers hold m.inf.mu, after
// qnetLocked has quantized every weight.
func (m *Model) servedNet32Locked() *nn.InferenceNet[float32] {
	twin, err := New(m.cfg)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	served := m.Params()
	for i, p := range twin.Params() {
		v := served[i].Value
		if q := m.inf.quant[served[i]]; q != nil {
			v = q.Dequantize()
		}
		p.Value.CopyFrom(v)
	}
	return compileScoring[float32](twin)
}

// int8State ensures the int8 program exists — every weight quantized,
// every activation entry registered — and returns the quantization cache
// and the ActSet: what Save persists and the calibration report reads.
func (m *Model) int8State() (nn.QuantCache, *nn.ActSet) {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	m.qnetLocked()
	return m.inf.quant, m.inf.acts
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
	_, acts := m.int8State()
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

// scoreWindows is the one scoring path of every precision: the time-major
// windows (N, W, C) are permuted channel-major at the width of the
// precision's compiled program, run through it, and each window scores the
// mean predicted variance over its channels.
func scoreWindows(m *Model, windows *tensor.Tensor) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	if windows.Dims() != 3 || windows.Dim(1) != w || windows.Dim(2) != c {
		panic(fmt.Sprintf("core: windows %v, want (N,%d,%d)", windows.Shape(), w, c))
	}
	switch m.Precision() {
	case PrecisionFloat64:
		return meanVariance(floatProgram(m, &m.inf.net64).Forward(channelMajor[float64](windows)), c)
	case PrecisionFloat32:
		return meanVariance(floatProgram(m, &m.inf.net32).Forward(channelMajor[float32](windows)), c)
	}
	x := channelMajor[float32](windows)
	return meanVariance(m.qnetFor(x).Forward(x), c)
}

// channelMajor permutes time-major windows (N, W, C) to the channel-major
// (N, C, W) batch the convolutions consume, converting each value to the
// program's width in the same pass, so no float64 intermediate is
// materialised.
func channelMajor[D tensor.Float](windows *tensor.Tensor) *tensor.Dense[D] {
	n, w, c := windows.Dim(0), windows.Dim(1), windows.Dim(2)
	out := tensor.NewOf[D](n, c, w)
	wd, od := windows.Data(), out.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for t := 0; t < w; t++ {
				for ch := 0; ch < c; ch++ {
					od[(i*c+ch)*w+t] = D(wd[(i*w+t)*c+ch])
				}
			}
		}
	})
	return out
}

// meanVariance turns the (N, C) log-variance output into per-window
// scores: the mean of exp(log-variance) over channels, summed in float64.
func meanVariance[T tensor.Float](out *tensor.Dense[T], c int) []float64 {
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

// WeightBytes reports the byte size of the weights inference touches at
// the current precision — the number the edge memory projections use.
func (m *Model) WeightBytes() int {
	switch m.Precision() {
	case PrecisionFloat32:
		return floatProgram(m, &m.inf.net32).WeightBytes()
	case PrecisionInt8:
		m.inf.mu.Lock()
		defer m.inf.mu.Unlock()
		return m.qnetLocked().WeightBytes()
	default:
		return 8 * m.NumParams()
	}
}
