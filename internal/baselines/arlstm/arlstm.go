// Package arlstm implements the AR-LSTM baseline of §3.3: an autoregressive
// recurrent forecaster with stacked LSTM layers followed by two fully
// connected layers. The anomaly score is the Euclidean norm of the
// difference between the predicted and the observed next value.
package arlstm

import (
	"fmt"
	"math"

	"varade/internal/detect"
	"varade/internal/nn"
	"varade/internal/tensor"
)

// Config describes an AR-LSTM forecaster.
type Config struct {
	// Window is the context length fed to the recurrence.
	Window int
	// Channels is the number of input/output variables.
	Channels int
	// Layers is the number of stacked LSTM layers (paper: 5).
	Layers int
	// Hidden is the per-layer feature-map count (paper: 256).
	Hidden int
	// Seed initialises the weights.
	Seed uint64

	// Training hyper-parameters used by Fit.
	Epochs   int
	Batch    int
	LR       float64
	Stride   int
	ClipNorm float64
}

// PaperConfig returns the architecture benchmarked in the paper:
// 5 LSTM layers × 256 units + 2 FC layers on a 512-step window.
func PaperConfig(channels int) Config {
	return Config{Window: 512, Channels: channels, Layers: 5, Hidden: 256, Seed: 1,
		Epochs: 5, Batch: 16, LR: 1e-5, Stride: 4, ClipNorm: 5}
}

// EdgeConfig returns a reduced recurrence that trains quickly on one core
// while keeping the stacked-LSTM-plus-FC topology.
func EdgeConfig(channels int) Config {
	return Config{Window: 8, Channels: channels, Layers: 2, Hidden: 24, Seed: 1,
		Epochs: 6, Batch: 16, LR: 3e-3, Stride: 4, ClipNorm: 5}
}

// Model is the AR-LSTM detector. It implements detect.Detector.
type Model struct {
	cfg Config
	net *nn.Sequential
}

// New builds an untrained AR-LSTM from cfg.
func New(cfg Config) (*Model, error) {
	if cfg.Window <= 1 || cfg.Channels <= 0 || cfg.Layers <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("arlstm: invalid config %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	net := nn.NewSequential()
	in := cfg.Channels
	for i := 0; i < cfg.Layers; i++ {
		last := i == cfg.Layers-1
		net.Add(nn.NewLSTM(in, cfg.Hidden, !last, rng))
		in = cfg.Hidden
	}
	net.Add(nn.NewDense(cfg.Hidden, cfg.Hidden, rng))
	net.Add(nn.NewReLU())
	net.Add(nn.NewDense(cfg.Hidden, cfg.Channels, rng))
	return &Model{cfg: cfg, net: net}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.net.Params() }

// Name implements detect.Detector.
func (m *Model) Name() string { return "AR-LSTM" }

// WindowSize implements detect.Detector: context plus the observed point
// the residual is computed against.
func (m *Model) WindowSize() int { return m.cfg.Window + 1 }

// Fit trains the forecaster with MSE on (window → next point) pairs.
func (m *Model) Fit(series *tensor.Tensor) error {
	if series.Dims() != 2 || series.Dim(1) != m.cfg.Channels {
		return fmt.Errorf("arlstm: Fit series shape %v, want (T,%d)", series.Shape(), m.cfg.Channels)
	}
	if series.Dim(0) <= m.cfg.Window+1 {
		return fmt.Errorf("arlstm: series length %d too short for window %d", series.Dim(0), m.cfg.Window)
	}
	inputs, targets := detect.Windows(series, m.cfg.Window, m.cfg.Stride)
	n := inputs.Dim(0)
	opt := nn.NewAdam(m.cfg.LR)
	rng := tensor.NewRNG(m.cfg.Seed + 7)
	params := m.Params()
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += m.cfg.Batch {
			end := min(start+m.cfg.Batch, n)
			x, y := gatherBatch(inputs, targets, perm[start:end])
			pred := m.net.Forward(x)
			_, grad := nn.MSE(pred, y)
			m.net.Backward(grad)
			if m.cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, m.cfg.ClipNorm)
			}
			opt.Step(params)
		}
	}
	return nil
}

// Predict forecasts the next point from a (Window, C) context.
func (m *Model) Predict(context *tensor.Tensor) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	if context.Dims() != 2 || context.Dim(0) != w || context.Dim(1) != c {
		panic(fmt.Sprintf("arlstm: context shape %v, want (%d,%d)", context.Shape(), w, c))
	}
	x := tensor.New(1, w, c)
	copy(x.Data(), context.Data())
	return append([]float64(nil), m.net.Forward(x).Data()...)
}

// Score implements detect.Detector: ‖observed − forecast‖₂.
func (m *Model) Score(window *tensor.Tensor) float64 {
	w := m.cfg.Window
	pred := m.Predict(window.SliceRows(0, w))
	obs := window.Row(w).Data()
	s := 0.0
	for i, p := range pred {
		d := obs[i] - p
		s += d * d
	}
	return math.Sqrt(s)
}

// Capabilities implements detect.Scorer: the forecaster batches natively
// and runs float64 only.
func (m *Model) Capabilities() detect.Capabilities { return detect.Float64Caps() }

// ScoreBatch implements detect.Scorer: windows are (N, W+1, C); the
// first W rows of each window form the forecasting context and the last
// row is the observed point. One batched recurrence forecasts all N next
// points, and the residual norms match Score exactly.
func (m *Model) ScoreBatch(windows *tensor.Tensor) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	if windows.Dims() != 3 || windows.Dim(1) != w+1 || windows.Dim(2) != c {
		panic(fmt.Sprintf("arlstm: ScoreBatch windows %v, want (N,%d,%d)", windows.Shape(), w+1, c))
	}
	n := windows.Dim(0)
	x := tensor.New(n, w, c)
	wd, xd := windows.Data(), x.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(xd[i*w*c:(i+1)*w*c], wd[i*(w+1)*c:(i*(w+1)+w)*c])
		}
	})
	pred := m.net.Forward(x)
	out := make([]float64, n)
	pd := pred.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			obs := wd[(i*(w+1)+w)*c : (i*(w+1)+w+1)*c]
			s := 0.0
			for j, p := range pd[i*c : (i+1)*c] {
				d := obs[j] - p
				s += d * d
			}
			out[i] = math.Sqrt(s)
		}
	})
	return out
}

func gatherBatch(inputs, targets *tensor.Tensor, idx []int) (x, y *tensor.Tensor) {
	w, c := inputs.Dim(1), inputs.Dim(2)
	ch := targets.Dim(1)
	x = tensor.New(len(idx), w, c)
	y = tensor.New(len(idx), ch)
	id, td, xd, yd := inputs.Data(), targets.Data(), x.Data(), y.Data()
	for i, j := range idx {
		copy(xd[i*w*c:(i+1)*w*c], id[j*w*c:(j+1)*w*c])
		copy(yd[i*ch:(i+1)*ch], td[j*ch:(j+1)*ch])
	}
	return x, y
}
