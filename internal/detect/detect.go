// Package detect defines the common interface that VARADE and every
// baseline detector implement, plus helpers to score whole series with a
// sliding window. The evaluation harness, edge profiler and streaming
// runtime all operate on this interface so each of the six algorithms in
// the paper's Table 2 is exercised by exactly the same code path.
package detect

import (
	"fmt"

	"varade/internal/tensor"
)

// Detector is an anomaly detector over multivariate time series.
//
// Series and windows are time-major: a series has shape (T, C) and a window
// has shape (W, C) where W = WindowSize(). Score returns an anomaly score
// for the point following (forecasters) or covered by (reconstruction and
// outlier detectors) the window; higher means more anomalous.
type Detector interface {
	// Name identifies the detector in reports (e.g. "VARADE", "AR-LSTM").
	Name() string
	// WindowSize is the number of consecutive time steps Score consumes.
	WindowSize() int
	// Fit trains the detector on an anomaly-free series of shape (T, C).
	Fit(series *tensor.Tensor) error
	// Score returns the anomaly score for one window of shape (W, C).
	Score(window *tensor.Tensor) float64
}

// Capabilities describes a detector's scoring engine: what execution
// schedules and numeric precisions it supports and which precision it is
// currently running. The serving layer negotiates per-session precision
// against this descriptor, and batching call sites use it instead of
// type-switching on optional interfaces.
type Capabilities struct {
	// Batched reports a native batched forward pass: ScoreBatch amortises
	// one call over N windows instead of looping Score.
	Batched bool
	// Precision is the effective inference precision ("float64",
	// "float32" or "int8").
	Precision string
	// Precisions lists every precision the detector can be re-targeted
	// to (always including Precision itself).
	Precisions []string
}

// Supports reports whether the engine can run at precision p.
func (c Capabilities) Supports(p string) bool {
	for _, q := range c.Precisions {
		if q == p {
			return true
		}
	}
	return false
}

// Scorer is the unified scoring surface every detector presents to the
// batched engine and the fleet server. ScoreBatch scores N time-major
// windows of shape (N, W, C) in one call and must produce exactly the
// scores Score would return window by window — batching only changes the
// execution schedule, not the arithmetic. Use AsScorer to obtain a Scorer
// for any Detector.
type Scorer interface {
	Detector
	Capabilities() Capabilities
	ScoreBatch(windows *tensor.Tensor) []float64
}

// Float64Caps is the capability descriptor of a plain float64 detector
// with a native batched path — the common case for the baselines.
func Float64Caps() Capabilities {
	return Capabilities{Batched: true, Precision: "float64", Precisions: []string{"float64"}}
}

// scorerAdapter lifts a Detector without a native Scorer implementation
// onto the unified surface: ScoreBatch loops Score per window.
type scorerAdapter struct {
	Detector
}

func (a scorerAdapter) Capabilities() Capabilities {
	return Capabilities{Precision: "float64", Precisions: []string{"float64"}}
}

func (a scorerAdapter) ScoreBatch(windows *tensor.Tensor) []float64 {
	return scoreBatchLoop(a.Detector, windows)
}

// scoreBatchLoop is the per-window fallback schedule over a (N, W, C)
// batch.
func scoreBatchLoop(d Detector, windows *tensor.Tensor) []float64 {
	if windows.Dims() != 3 {
		panic(fmt.Sprintf("detect: ScoreBatch needs (N,W,C), got %v", windows.Shape()))
	}
	n, w, c := windows.Dim(0), windows.Dim(1), windows.Dim(2)
	wd := windows.Data()
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = d.Score(tensor.FromSlice(wd[i*w*c:(i+1)*w*c], w, c))
	}
	return scores
}

// AsScorer returns d's unified scoring surface: detectors implementing
// Scorer natively are returned unchanged, everything else is wrapped in
// an adapter whose ScoreBatch loops Score per window. This is the single
// place the optional-interface probe happens; callers never type-switch.
func AsScorer(d Detector) Scorer {
	if s, ok := d.(Scorer); ok {
		return s
	}
	return scorerAdapter{d}
}

// Stream scores one feed of consecutive samples incrementally: the windows
// of a hop-1 stream overlap in all but one sample, and a detector whose
// arithmetic allows it keeps per-stream state so that each new sample costs
// only the work no earlier window has done. The scores are those Score
// returns on each window (bit for bit at float64).
type Stream interface {
	// Extend consumes rows — n consecutive samples, time-major (n, C) —
	// and appends to dst the score of every window they complete, in
	// stream order: none until WindowSize samples have been fed in all,
	// then one per sample. ok is false when the detector's inference
	// program has been replaced (retrained, reloaded, another precision)
	// since the stream was made: it then consumed nothing and is dead;
	// make a new one and replay the last WindowSize−1 samples into it.
	Extend(dst, rows []float64) (scores []float64, ok bool)
}

// StreamScorer is the optional capability of detectors that can score a
// stream incrementally. NewStream returns nil when the detector cannot do
// so as currently configured (VARADE at int8 before its activation scales
// are calibrated, say); callers then score whole windows, and may ask again
// later. Use NewStream (the function) rather than probing for it.
type StreamScorer interface {
	NewStream() Stream
}

// NewStream returns a fresh Stream over d, or nil when d scores only whole
// windows.
func NewStream(d Detector) Stream {
	if s, ok := d.(StreamScorer); ok {
		return s.NewStream()
	}
	return nil
}

// BatchChunk is the number of windows a Feed materialises and scores per
// ScoreBatch call when it scores whole windows. It bounds the working set
// (chunk·W·C floats) while keeping each batched forward large enough to
// amortise per-call overhead and saturate the tensor worker pool.
const BatchChunk = 256

// ScoreSeriesBatched is ScoreSeries through one Feed over the series: a
// detector that streams (NewStream) is fed the series through a fresh
// Stream; any other has its windows materialised in chunks and scored
// through ScoreBatch (which loops Score for detectors without a batched
// path). Scores are identical to ScoreSeries either way.
func ScoreSeriesBatched(d Detector, series *tensor.Tensor) []float64 {
	if series.Dims() != 2 {
		panic(fmt.Sprintf("detect: ScoreSeriesBatched needs a (T,C) series, got %v", series.Shape()))
	}
	t, w := series.Dim(0), d.WindowSize()
	if t <= w {
		panic(fmt.Sprintf("detect: series length %d not longer than window %d", t, w))
	}
	scores := make([]float64, t)
	// Appends in place: scores[w-1:] has room for exactly the t−w+1 scores.
	NewFeed(d, series.Dim(1)).Extend(scores[w-1:w-1], series.Data())
	fillLeading(scores, w)
	return scores
}

// fillLeading gives the first w−1 steps, which no full window ends at, the
// first computed score.
func fillLeading(scores []float64, w int) {
	for i := 0; i < w-1; i++ {
		scores[i] = scores[w-1]
	}
}

// ScoreSeries slides the detector over series (shape (T, C)) and returns
// one score per time step. The score for step i uses the window ending AT
// i inclusive — rows [i−W+1, i+1) — matching the streaming Runner, which
// scores each sample as it arrives: the evidence for "is point i
// anomalous" includes point i itself. The first W−1 steps, for which no
// full window exists yet, receive the first computed score so the output
// aligns 1:1 with the input and with ground-truth labels.
func ScoreSeries(d Detector, series *tensor.Tensor) []float64 {
	if series.Dims() != 2 {
		panic(fmt.Sprintf("detect: ScoreSeries needs a (T,C) series, got %v", series.Shape()))
	}
	t := series.Dim(0)
	w := d.WindowSize()
	if t <= w {
		panic(fmt.Sprintf("detect: series length %d not longer than window %d", t, w))
	}
	scores := make([]float64, t)
	for i := w - 1; i < t; i++ {
		scores[i] = d.Score(series.SliceRows(i-w+1, i+1))
	}
	for i := 0; i < w-1; i++ {
		scores[i] = scores[w-1]
	}
	return scores
}

// Windows extracts all (window, next-point) training pairs from a series of
// shape (T, C) with the given stride: inputs (N, W, C) and targets (N, C),
// where target i is the point immediately after window i. Forecasting
// detectors (VARADE, AR-LSTM, GBRF) train on these pairs.
func Windows(series *tensor.Tensor, window, stride int) (inputs, targets *tensor.Tensor) {
	if series.Dims() != 2 {
		panic(fmt.Sprintf("detect: Windows needs a (T,C) series, got %v", series.Shape()))
	}
	t, c := series.Dim(0), series.Dim(1)
	n := (t - window - 1 + stride) / stride
	if t-window <= 0 || n <= 0 {
		panic(fmt.Sprintf("detect: series length %d too short for window %d", t, window))
	}
	inputs = tensor.New(n, window, c)
	targets = tensor.New(n, c)
	sd, id, td := series.Data(), inputs.Data(), targets.Data()
	for i := 0; i < n; i++ {
		start := i * stride
		copy(id[i*window*c:(i+1)*window*c], sd[start*c:(start+window)*c])
		copy(td[i*c:(i+1)*c], sd[(start+window)*c:(start+window+1)*c])
	}
	return inputs, targets
}

// ToChannelMajor converts a batch of time-major windows (N, W, C) into the
// channel-major layout (N, C, W) consumed by 1-D convolutions.
func ToChannelMajor(windows *tensor.Tensor) *tensor.Tensor {
	if windows.Dims() != 3 {
		panic(fmt.Sprintf("detect: ToChannelMajor needs (N,W,C), got %v", windows.Shape()))
	}
	n, w, c := windows.Dim(0), windows.Dim(1), windows.Dim(2)
	out := tensor.New(n, c, w)
	wd, od := windows.Data(), out.Data()
	tensor.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for t := 0; t < w; t++ {
				for ch := 0; ch < c; ch++ {
					od[(i*c+ch)*w+t] = wd[(i*w+t)*c+ch]
				}
			}
		}
	})
	return out
}
