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
// instead of a whole window's worth. Every precision streams its own
// compiled program; int8 does so once its activation scales are latched,
// keeping int8 columns in each stage's quantized domain, bit-identical to
// its window lane.

// NewStream implements detect.StreamScorer: a fresh stream over the model's
// current compiled program — restated over the series once and sharing
// that program's weight panels. It is nil only at int8 while the
// activation scales are uncalibrated: a fresh model calibrates on the first
// batch of windows it scores, as every int8 model always has, and streams
// afterwards.
func (m *Model) NewStream() detect.Stream {
	m.inf.mu.Lock()
	defer m.inf.mu.Unlock()
	switch m.Precision() {
	case PrecisionFloat32:
		return bindStream(m, &m.inf.stream32, floatProgramLocked(m, &m.inf.net32))
	case PrecisionFloat64:
		return bindStream(m, &m.inf.stream64, floatProgramLocked(m, &m.inf.net64))
	}
	if m.inf.acts == nil || !m.inf.acts.Calibrated() {
		return nil
	}
	return bindStream(m, &m.inf.stream8, m.qnetLocked())
}

// modelStream is one stream's state bound to the model generation it was
// made at.
type modelStream[T tensor.Float] struct {
	m   *Model
	gen uint64
	st  *nn.StreamState[T]
}

// bindStream returns a stream over the restatement cached in sp, restating
// net on first use. Callers hold m.inf.mu.
func bindStream[T tensor.Float](m *Model, sp **nn.StreamNet[T], net *nn.InferenceNet[T]) *modelStream[T] {
	if *sp == nil {
		p, err := net.Stream()
		if err != nil {
			// New only builds kernel = stride cascades, and an int8
			// program only gets here calibrated.
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
