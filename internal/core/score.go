package core

import (
	"fmt"
	"math"

	"varade/internal/detect"
	"varade/internal/tensor"
)

// ResidualScorer wraps a trained VARADE model but scores windows with the
// conventional forecasting criterion — the Euclidean norm between forecast
// mean and observed value — instead of the predicted variance. It exists
// for the paper's central ablation: §3.1 observes that edge-sized
// autoregressive models forecast too poorly for residual scores to work,
// which motivates the variational variance score.
//
// Its window is one step longer than the model's: the first Window rows
// form the forecasting context and the last row is the observed next point.
type ResidualScorer struct {
	Model *Model
}

// Name implements detect.Detector.
func (r *ResidualScorer) Name() string { return "VARADE-residual" }

// WindowSize implements detect.Detector (context + observed point).
func (r *ResidualScorer) WindowSize() int { return r.Model.cfg.Window + 1 }

// Fit trains the underlying model.
func (r *ResidualScorer) Fit(series *tensor.Tensor) error { return r.Model.Fit(series) }

// Score returns ‖observed − μ‖₂ for the window's final row.
func (r *ResidualScorer) Score(window *tensor.Tensor) float64 {
	w := r.Model.cfg.Window
	c := r.Model.cfg.Channels
	if window.Dims() != 2 || window.Dim(0) != w+1 || window.Dim(1) != c {
		panic(fmt.Sprintf("core: ResidualScorer window %v, want (%d,%d)", window.Shape(), w+1, c))
	}
	mean, _ := r.Model.Predict(window.SliceRows(0, w))
	obs := window.Row(w).Data()
	s := 0.0
	for i, m := range mean {
		d := obs[i] - m
		s += d * d
	}
	return math.Sqrt(s)
}

// Capabilities implements detect.Scorer: the residual criterion always
// evaluates through the float64 training head (Predict needs μ, which the
// reduced-precision programs discard).
func (r *ResidualScorer) Capabilities() detect.Capabilities { return detect.Float64Caps() }

// ScoreBatch implements detect.Scorer: windows are (N, W+1, C), the
// first W rows of each being the forecasting context and the last the
// observed point. One batched forward yields all N residual norms.
func (r *ResidualScorer) ScoreBatch(windows *tensor.Tensor) []float64 {
	w := r.Model.cfg.Window
	c := r.Model.cfg.Channels
	if windows.Dims() != 3 || windows.Dim(1) != w+1 || windows.Dim(2) != c {
		panic(fmt.Sprintf("core: ResidualScorer ScoreBatch windows %v, want (N,%d,%d)", windows.Shape(), w+1, c))
	}
	n := windows.Dim(0)
	// Channel-major contexts: x[i, ch, t] = windows[i, t, ch] for t < W.
	x := tensor.New(n, c, w)
	wd, xd := windows.Data(), x.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for t := 0; t < w; t++ {
				for ch := 0; ch < c; ch++ {
					xd[(i*c+ch)*w+t] = wd[(i*(w+1)+t)*c+ch]
				}
			}
		}
	})
	mu, _ := r.Model.Forward(x)
	out := make([]float64, n)
	md := mu.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			obs := wd[(i*(w+1)+w)*c : (i*(w+1)+w+1)*c]
			s := 0.0
			for j, m := range md[i*c : (i+1)*c] {
				d := obs[j] - m
				s += d * d
			}
			out[i] = math.Sqrt(s)
		}
	})
	return out
}
