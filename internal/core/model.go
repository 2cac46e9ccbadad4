package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"varade/internal/modelio"
	"varade/internal/nn"
	"varade/internal/tensor"
)

// Model is a VARADE network. It implements detect.Detector once fitted.
// Training (and Predict, which needs μ) runs on the float64 layer stack;
// Score/ScoreBatch run the compiled program of the precision
// selected by Config.Precision (see precision.go).
type Model struct {
	cfg   Config
	trunk *nn.Sequential // conv/ReLU cascade
	flat  *nn.Flatten
	head  *nn.Dense    // linear projection to (μ, logσ²)
	train *TrainConfig // optional override for Fit; nil uses defaults
	inf   inferState   // compiled inference programs
}

// New builds an untrained VARADE model from cfg.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	maps := cfg.LayerMaps()
	trunk := nn.NewSequential()
	inC := cfg.Channels
	for _, outC := range maps {
		trunk.Add(nn.NewConv1D(inC, outC, 2, 2, 0, rng))
		trunk.Add(nn.NewReLU())
		inC = outC
	}
	// After NumLayers halvings the time dimension is 2, so the projection
	// sees 2·lastMaps features and emits mean and log-variance per channel.
	head := nn.NewDense(2*maps[len(maps)-1], 2*cfg.Channels, rng)
	return &Model{cfg: cfg, trunk: trunk, flat: nn.NewFlatten(), head: head}, nil
}

// Config returns the model's architecture description.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	return append(m.trunk.Params(), m.head.Params()...)
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// Forward predicts the distribution of the next time step for a batch of
// channel-major windows x of shape (N, C, W), returning the mean and
// log-variance, each of shape (N, C).
func (m *Model) Forward(x *tensor.Tensor) (mu, logVar *tensor.Tensor) {
	if x.Dims() != 3 || x.Dim(1) != m.cfg.Channels || x.Dim(2) != m.cfg.Window {
		panic(fmt.Sprintf("core: Forward shape %v, want (N,%d,%d)", x.Shape(), m.cfg.Channels, m.cfg.Window))
	}
	out := m.head.Forward(m.flat.Forward(m.trunk.Forward(x)))
	n, c := out.Dim(0), m.cfg.Channels
	mu = tensor.New(n, c)
	logVar = tensor.New(n, c)
	od, md, ld := out.Data(), mu.Data(), logVar.Data()
	for i := 0; i < n; i++ {
		copy(md[i*c:(i+1)*c], od[i*2*c:i*2*c+c])
		copy(ld[i*c:(i+1)*c], od[i*2*c+c:(i+1)*2*c])
	}
	return mu, logVar
}

// Backward propagates gradients with respect to mean and log-variance
// (each (N, C)) through the network, accumulating parameter gradients.
func (m *Model) Backward(dMu, dLogVar *tensor.Tensor) {
	n, c := dMu.Dim(0), m.cfg.Channels
	grad := tensor.New(n, 2*c)
	gd, md, ld := grad.Data(), dMu.Data(), dLogVar.Data()
	for i := 0; i < n; i++ {
		copy(gd[i*2*c:i*2*c+c], md[i*c:(i+1)*c])
		copy(gd[i*2*c+c:(i+1)*2*c], ld[i*c:(i+1)*c])
	}
	m.trunk.Backward(m.flat.Backward(m.head.Backward(grad)))
}

// Loss computes the full ELBO-derived objective of Eq. (7),
// L = L_recon + λ·D_KL, for predictions against target (N, C), and the
// gradients with respect to mu and logVar.
func (m *Model) Loss(mu, logVar, target *tensor.Tensor) (loss float64, dMu, dLogVar *tensor.Tensor) {
	nll, dMuN, dLvN := nn.GaussianNLL(mu, logVar, target)
	kl, dMuK, dLvK := nn.GaussianKL(mu, logVar)
	dMu = tensor.AXPY(m.cfg.KLWeight, dMuK, dMuN)
	dLogVar = tensor.AXPY(m.cfg.KLWeight, dLvK, dLvN)
	return nll + m.cfg.KLWeight*kl, dMu, dLogVar
}

// Name implements detect.Detector.
func (m *Model) Name() string { return "VARADE" }

// WindowSize implements detect.Detector: VARADE consumes exactly its
// context window and scores the point that follows it.
func (m *Model) WindowSize() int { return m.cfg.Window }

// Score implements detect.Detector. The window is time-major (W, C); the
// score is the mean predicted variance over channels — §3.2: "the variance
// is directly used as an anomaly score" (the mean prediction is discarded).
// It is ScoreBatch on a batch of one.
func (m *Model) Score(window *tensor.Tensor) float64 {
	return m.ScoreBatch(m.batchOfOne(window))[0]
}

// ScoreBatch implements detect.Scorer: it scores N time-major windows
// (N, W, C) in one pass of the model's compiled program at its configured
// precision. Per-window arithmetic does not depend on N, so the scores
// match Score exactly at every precision, and at float64 they are those of
// the layer stack (Forward) bit for bit.
func (m *Model) ScoreBatch(windows *tensor.Tensor) []float64 {
	return scoreWindows(m, windows)
}

// Predict returns the per-channel mean and variance forecast for a single
// time-major window (W, C).
func (m *Model) Predict(window *tensor.Tensor) (mean, variance []float64) {
	mu, logVar := m.Forward(channelMajor[float64](m.batchOfOne(window)))
	mean = append([]float64(nil), mu.Data()...)
	variance = make([]float64, logVar.Len())
	for i, lv := range logVar.Data() {
		variance[i] = math.Exp(lv)
	}
	return mean, variance
}

// batchOfOne views one time-major window (W, C) as a batch (1, W, C).
func (m *Model) batchOfOne(window *tensor.Tensor) *tensor.Tensor {
	w, c := m.cfg.Window, m.cfg.Channels
	if window.Dims() != 2 || window.Dim(0) != w || window.Dim(1) != c {
		panic(fmt.Sprintf("core: window shape %v, want (%d,%d)", window.Shape(), w, c))
	}
	return window.Reshape(1, w, c)
}

// Summary renders the architecture as a table: one row per layer with
// output shape and parameter count, mirroring Fig. 1 of the paper.
func (m *Model) Summary(w io.Writer) {
	maps := m.cfg.LayerMaps()
	fmt.Fprintf(w, "VARADE  T=%d  C=%d  λ=%g  (%d parameters)\n",
		m.cfg.Window, m.cfg.Channels, m.cfg.KLWeight, m.NumParams())
	fmt.Fprintf(w, "%-22s %-18s %s\n", "layer", "output shape", "params")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 52))
	length := m.cfg.Window
	inC := m.cfg.Channels
	for i, outC := range maps {
		length /= 2
		p := outC*inC*2 + outC
		fmt.Fprintf(w, "conv1d_%-2d k=2 s=2      (%d, %d)%*s %d\n", i+1, outC, length,
			14-len(fmt.Sprintf("(%d, %d)", outC, length)), "", p)
		inC = outC
	}
	last := maps[len(maps)-1]
	fmt.Fprintf(w, "%-22s %-18s %d\n", "linear → (μ, logσ²)",
		fmt.Sprintf("(2, %d)", m.cfg.Channels), (2*last)*(2*m.cfg.Channels)+2*m.cfg.Channels)
}

// Save writes the model to path in the self-describing container format:
// a versioned header carrying the architecture Config and payload dtype,
// then the weights in the model's precision — float64 files keep the
// legacy byte layout, float32 files store rounded weights, int8 files
// store the exact quantized blocks being served. Files written by Save
// reload with LoadModel without any architecture flags.
func (m *Model) Save(path string) error {
	switch m.Precision() {
	case PrecisionFloat32:
		return modelio.SaveFileDType(path, modelio.KindVARADE, modelio.DTypeFloat32, m.cfg,
			func(w io.Writer) error { return nn.SaveParamsF32(w, m.Params()) })
	case PrecisionInt8:
		cache, acts := m.int8State()
		return modelio.SaveFileDType(path, modelio.KindVARADE, modelio.DTypeInt8, m.cfg,
			func(w io.Writer) error {
				return nn.SaveParamsQuant(w, m.Params(), func(p *nn.Param) *nn.QuantTensor { return cache[p] }, acts)
			})
	default:
		return nn.SaveModelFile(path, modelio.KindVARADE, m.cfg, m.Params())
	}
}

// Load reads weights from path into the model. Files written by Save
// carry a config header, validated against this model's architecture; the
// model adopts the file's precision and payload (float64, float32 or
// int8). Bare legacy weight files (pre-header, magic "VNN1") still load
// positionally as before.
func (m *Model) Load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(len(modelio.Magic))
	if err != nil {
		return fmt.Errorf("core: reading %s: %w", path, err)
	}
	dtype := modelio.DTypeFloat64
	if string(head) == modelio.Magic || string(head) == modelio.MagicV2 {
		kind, d, cfgJSON, err := modelio.ReadHeaderDType(br)
		if err != nil {
			return err
		}
		if kind != modelio.KindVARADE {
			return fmt.Errorf("core: %s holds a %q model, not VARADE", path, kind)
		}
		var cfg Config
		if err := modelio.Unmarshal(cfgJSON, &cfg); err != nil {
			return err
		}
		if cfg.Window != m.cfg.Window || cfg.Channels != m.cfg.Channels || cfg.BaseMaps != m.cfg.BaseMaps {
			return fmt.Errorf("core: %s was trained as T=%d C=%d maps=%d, model is T=%d C=%d maps=%d",
				path, cfg.Window, cfg.Channels, cfg.BaseMaps, m.cfg.Window, m.cfg.Channels, m.cfg.BaseMaps)
		}
		dtype = d
		m.cfg.Precision = cfg.Precision
	}
	m.invalidateInference()
	return m.loadPayload(br, dtype)
}

// loadPayload fills the model's parameters from a payload of the given
// dtype, stashing exact quantized blocks for int8 files.
func (m *Model) loadPayload(r io.Reader, dtype string) error {
	switch dtype {
	case modelio.DTypeFloat32:
		return nn.LoadParamsF32(r, m.Params())
	case modelio.DTypeInt8:
		cache, acts, err := nn.LoadParamsQuant(r, m.Params())
		if err != nil {
			return err
		}
		m.inf.mu.Lock()
		m.inf.quant = cache
		m.inf.acts = acts // nil for legacy files: calibrates on first batch
		m.inf.mu.Unlock()
		return nil
	default:
		return nn.LoadParams(r, m.Params())
	}
}

// LoadModel reads a container file written by Save and reconstructs the
// model from its embedded Config — the registry/serving path, where no
// architecture flags are available. The file's dtype selects the payload
// decoder; the reconstructed model scores in the precision it was saved
// with.
func LoadModel(path string) (*Model, error) {
	var cfg Config
	var m *Model
	err := modelio.LoadFileDType(path, modelio.KindVARADE, &cfg, func(dtype string, r io.Reader) error {
		var err error
		if m, err = New(cfg); err != nil {
			return err
		}
		return m.loadPayload(r, dtype)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
