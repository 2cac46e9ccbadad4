// Package ae implements the autoencoder baseline of §3.3: a convolutional
// encoder/decoder built from six ResNet blocks [He et al. 2016]. The
// anomaly score is the Euclidean norm of the difference between the
// reconstructed and the observed window.
package ae

import (
	"fmt"
	"math"

	"varade/internal/detect"
	"varade/internal/nn"
	"varade/internal/tensor"
)

// Config describes the autoencoder.
type Config struct {
	// Window is the reconstructed segment length; it must be divisible by 4
	// (the encoder downsamples twice by stride 2).
	Window int
	// Channels is the number of input variables.
	Channels int
	// BaseMaps is the encoder's first feature-map count; the bottleneck
	// uses 2×BaseMaps.
	BaseMaps int
	// Seed initialises the weights.
	Seed uint64

	// Training hyper-parameters used by Fit.
	Epochs   int
	Batch    int
	LR       float64
	Stride   int
	ClipNorm float64
}

// PaperConfig returns a full-scale six-ResNet-block autoencoder on the
// paper's 512-step window.
func PaperConfig(channels int) Config {
	return Config{Window: 512, Channels: channels, BaseMaps: 64, Seed: 1,
		Epochs: 5, Batch: 16, LR: 1e-5, Stride: 4, ClipNorm: 5}
}

// EdgeConfig returns a reduced autoencoder that trains quickly on one
// core. As for VARADE, the window matches the collision event scale of
// the 10 Hz stream (see core.EdgeConfig).
func EdgeConfig(channels int) Config {
	return Config{Window: 8, Channels: channels, BaseMaps: 8, Seed: 1,
		Epochs: 6, Batch: 16, LR: 3e-3, Stride: 4, ClipNorm: 5}
}

// Model is the autoencoder detector. It implements detect.Detector.
type Model struct {
	cfg Config
	net *nn.Sequential
}

// New builds an untrained autoencoder: three residual blocks around two
// stride-2 downsamplings, mirrored by two transposed-convolution
// upsamplings around three more residual blocks (six blocks total).
func New(cfg Config) (*Model, error) {
	if cfg.Window < 4 || cfg.Window%4 != 0 {
		return nil, fmt.Errorf("ae: Window must be a positive multiple of 4, got %d", cfg.Window)
	}
	if cfg.Channels <= 0 || cfg.BaseMaps <= 0 {
		return nil, fmt.Errorf("ae: invalid config %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	f := cfg.BaseMaps
	net := nn.NewSequential(
		// Encoder.
		nn.NewResBlock1D(cfg.Channels, f, rng),
		nn.NewConv1D(f, f, 2, 2, 0, rng), // W → W/2
		nn.NewResBlock1D(f, 2*f, rng),
		nn.NewConv1D(2*f, 2*f, 2, 2, 0, rng), // W/2 → W/4 (bottleneck)
		nn.NewResBlock1D(2*f, 2*f, rng),
		// Decoder.
		nn.NewConvTranspose1D(2*f, 2*f, 2, 2, 0, rng), // W/4 → W/2
		nn.NewResBlock1D(2*f, f, rng),
		nn.NewConvTranspose1D(f, f, 2, 2, 0, rng), // W/2 → W
		nn.NewResBlock1D(f, f, rng),
		nn.NewResBlock1D(f, cfg.Channels, rng),
	)
	return &Model{cfg: cfg, net: net}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.net.Params() }

// Name implements detect.Detector.
func (m *Model) Name() string { return "AE" }

// WindowSize implements detect.Detector.
func (m *Model) WindowSize() int { return m.cfg.Window }

// Fit trains the autoencoder to reconstruct normal windows under MSE.
func (m *Model) Fit(series *tensor.Tensor) error {
	if series.Dims() != 2 || series.Dim(1) != m.cfg.Channels {
		return fmt.Errorf("ae: Fit series shape %v, want (T,%d)", series.Shape(), m.cfg.Channels)
	}
	if series.Dim(0) <= m.cfg.Window+1 {
		return fmt.Errorf("ae: series length %d too short for window %d", series.Dim(0), m.cfg.Window)
	}
	wins, _ := detect.Windows(series, m.cfg.Window, m.cfg.Stride)
	inputs := detect.ToChannelMajor(wins)
	n := inputs.Dim(0)
	opt := nn.NewAdam(m.cfg.LR)
	rng := tensor.NewRNG(m.cfg.Seed + 7)
	params := m.Params()
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += m.cfg.Batch {
			end := min(start+m.cfg.Batch, n)
			x := gatherBatch(inputs, perm[start:end])
			recon := m.net.Forward(x)
			_, grad := nn.MSE(recon, x)
			m.net.Backward(grad)
			if m.cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, m.cfg.ClipNorm)
			}
			opt.Step(params)
		}
	}
	return nil
}

// Reconstruct returns the autoencoder output for one time-major window.
func (m *Model) Reconstruct(window *tensor.Tensor) *tensor.Tensor {
	x := windowToInput(window, m.cfg.Channels, m.cfg.Window)
	return m.net.Forward(x)
}

// Score implements detect.Detector: ‖window − reconstruction‖₂.
func (m *Model) Score(window *tensor.Tensor) float64 {
	x := windowToInput(window, m.cfg.Channels, m.cfg.Window)
	recon := m.net.Forward(x)
	s := 0.0
	xd, rd := x.Data(), recon.Data()
	for i := range xd {
		d := xd[i] - rd[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Capabilities implements detect.Scorer: the autoencoder batches natively
// and runs float64 only.
func (m *Model) Capabilities() detect.Capabilities { return detect.Float64Caps() }

// ScoreBatch implements detect.Scorer: it reconstructs N time-major
// windows (N, W, C) in one batched forward and returns the per-window
// reconstruction-error norms, matching Score exactly.
func (m *Model) ScoreBatch(windows *tensor.Tensor) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	if windows.Dims() != 3 || windows.Dim(1) != w || windows.Dim(2) != c {
		panic(fmt.Sprintf("ae: ScoreBatch windows %v, want (N,%d,%d)", windows.Shape(), w, c))
	}
	x := detect.ToChannelMajor(windows)
	recon := m.net.Forward(x)
	n := windows.Dim(0)
	out := make([]float64, n)
	xd, rd := x.Data(), recon.Data()
	stride := c * w
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for j := i * stride; j < (i+1)*stride; j++ {
				d := xd[j] - rd[j]
				s += d * d
			}
			out[i] = math.Sqrt(s)
		}
	})
	return out
}

func windowToInput(window *tensor.Tensor, c, w int) *tensor.Tensor {
	if window.Dims() != 2 || window.Dim(0) != w || window.Dim(1) != c {
		panic(fmt.Sprintf("ae: window shape %v, want (%d,%d)", window.Shape(), w, c))
	}
	x := tensor.New(1, c, w)
	wd, xd := window.Data(), x.Data()
	for t := 0; t < w; t++ {
		for ch := 0; ch < c; ch++ {
			xd[ch*w+t] = wd[t*c+ch]
		}
	}
	return x
}

func gatherBatch(inputs *tensor.Tensor, idx []int) *tensor.Tensor {
	c, w := inputs.Dim(1), inputs.Dim(2)
	x := tensor.New(len(idx), c, w)
	id, xd := inputs.Data(), x.Data()
	for i, j := range idx {
		copy(xd[i*c*w:(i+1)*c*w], id[j*c*w:(j+1)*c*w])
	}
	return x
}
