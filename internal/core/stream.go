package core

import (
	"fmt"
	"math"

	"varade/internal/detect"
	"varade/internal/nn"
	"varade/internal/tensor"
)

// Incremental scoring of one stream (detect.StreamScorer). VARADE's trunk
// is kernel-2/stride-2 convolutions with pointwise ReLU, so consecutive
// hop-1 windows share all but one column per layer (nn.StreamNet): a stream
// keeps those columns and each new sample costs one column per layer
// instead of a whole window's worth. Both float precisions stream; int8
// quantizes activations per calibrated stage and keeps the window path.

// NewStream implements detect.StreamScorer: a fresh stream over the model's
// current float program — restated over the series once and sharing that
// program's weight panels — or nil at int8.
func (m *Model) NewStream() detect.Stream {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	switch m.Precision() {
	case PrecisionFloat32:
		return bindStream(m, &m.inf.stream32, &m.inf.net32)
	case PrecisionFloat64:
		return bindStream(m, &m.inf.stream64, &m.inf.net64)
	}
	return nil
}

// modelStream is one stream's state bound to the model generation it was
// made at.
type modelStream[T tensor.Float] struct {
	m   *Model
	gen uint64
	st  *nn.StreamState[T]
}

// bindStream returns a stream over the restatement cached in sp, restating
// the float program cached in net (both built on first use). Callers hold
// m.inf.mu.
func bindStream[T tensor.Float](m *Model, sp **nn.StreamNet[T], net **nn.InferenceNet[T]) *modelStream[T] {
	if *sp == nil {
		p, err := floatProgramLocked(m, net).Stream()
		if err != nil {
			// New only builds kernel = stride cascades.
			panic(fmt.Sprintf("core: restating inference over the stream: %v", err))
		}
		*sp = p
	}
	return &modelStream[T]{m: m, gen: m.inf.gen.Load(), st: (*sp).NewState()}
}

// Extend implements detect.Stream. Rows are fed detect.BatchChunk at a
// time, which bounds the scratch whatever the backlog; a window's score is
// the mean predicted variance over channels, as in Score.
func (s *modelStream[T]) Extend(dst, rows []float64) ([]float64, bool) {
	if s.m.inf.gen.Load() != s.gen {
		return dst, false
	}
	c := s.m.cfg.Channels
	for len(rows) > 0 {
		n := min(len(rows), detect.BatchChunk*c)
		logVar := s.st.Extend(rows[:n])
		for ; len(logVar) > 0; logVar = logVar[c:] {
			sum := 0.0
			for _, lv := range logVar[:c] {
				sum += math.Exp(float64(lv))
			}
			dst = append(dst, sum/float64(c))
		}
		rows = rows[n:]
	}
	return dst, true
}
