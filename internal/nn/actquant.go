package nn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"varade/internal/tensor"
)

// Per-tensor affine int8 quantization of activations. Each quantized
// stage input (the network input, every inter-layer tensor inside a
// quantized segment) carries one ActQuant mapping float32 activations to
// int8 via
//
//	q = clamp(round(x/scale) + zero, -128, 127)
//	x ≈ (q - zero) · scale
//
// with the observed range anchored at zero, so x = 0 maps to the zero
// point exactly — which is what makes ReLU exact in the quantized
// domain: max(x, 0) becomes max(q, zero).
//
// Scales are calibrated once over a representative batch, observed
// through the float32 program of the quantized layers (ActSet.Calibrate),
// or restored from a container, then latched: every forward runs the pure
// int8×int8 lane with fixed requantization constants, so scores are
// deterministic and survive save/load bit-for-bit.

// ActQuant is the calibrated affine quantization of one activation
// tensor, plus the observation and clipping statistics behind it.
type ActQuant struct {
	Label string  // stage label for calibration reports, e.g. "conv0.in"
	Scale float32 // 0 until calibrated
	Zero  int8

	lo, hi float64 // observed range (0-anchored) during calibration

	// clipped/total count int8 saturation events on the live lane — the
	// fraction of activation values that landed outside the calibrated
	// range and were clamped to ±127/−128.
	clipped atomic.Int64
	total   atomic.Int64
}

// observe widens the entry's 0-anchored range with one calibration
// tensor. Callers hold the owning ActSet's mutex.
func (a *ActQuant) observe(xs []float32) {
	for _, v := range xs {
		f := float64(v)
		if f < a.lo {
			a.lo = f
		}
		if f > a.hi {
			a.hi = f
		}
	}
}

// latch derives Scale/Zero from the observed range. An all-zero (or
// never-observed) range latches scale 1, zero 0 — the identity-ish
// mapping QuantizeRows uses for all-zero weight rows.
func (a *ActQuant) latch() {
	span := a.hi - a.lo
	if span <= 0 {
		a.Scale, a.Zero = 1, 0
		return
	}
	scale := span / 255
	zp := -128 - a.lo/scale
	// Round to nearest; the 0-anchored range keeps zp in [-128, 127],
	// but clamp anyway so a pathological range cannot wrap the int8.
	z := int(zp + 0.5)
	if zp < 0 {
		z = int(zp - 0.5)
	}
	if z < -128 {
		z = -128
	} else if z > 127 {
		z = 127
	}
	a.Scale, a.Zero = float32(scale), int8(z)
}

// Calibrated reports whether the entry has latched scales.
func (a *ActQuant) Calibrated() bool { return a.Scale != 0 }

// Range returns the observed calibration range. Zeroes when the entry
// was restored from a container rather than calibrated in-process.
func (a *ActQuant) Range() (lo, hi float64) { return a.lo, a.hi }

// ClippedFraction reports the fraction of live activation values clamped
// at the int8 boundary since calibration, and the total observed count.
func (a *ActQuant) ClippedFraction() (frac float64, total int64) {
	total = a.total.Load()
	if total == 0 {
		return 0, 0
	}
	return float64(a.clipped.Load()) / float64(total), total
}

// noteClipped accumulates saturation statistics from one quantization
// pass.
func (a *ActQuant) noteClipped(clipped, total int) {
	if total == 0 {
		return
	}
	a.total.Add(int64(total))
	if clipped != 0 {
		a.clipped.Add(int64(clipped))
	}
}

// ActSet owns the activation-quantization entries of one compiled model,
// in deterministic compile order — the order the container serializes.
// Entries are registered at compile time (next), observed and latched
// under mu by Calibrate, and read lock-free afterwards: each compiled
// segment gates its int8 lane on its own atomic ready flag, whose Store
// (under mu, once the segment has built its tables from the scales)
// happens after the scale writes, ordering them visible to every
// lock-free reader.
type ActSet struct {
	mu      sync.Mutex
	entries []*ActQuant
	cursor  int // next registration slot; reset per compile pass
}

// NewActSet returns an empty set, ready for compile-time registration.
func NewActSet() *ActSet { return &ActSet{} }

// RestoreActSet rebuilds a calibrated set from container scales, in
// serialized (= compile) order.
func RestoreActSet(scales []float32, zeros []int8) *ActSet {
	s := &ActSet{}
	for i := range scales {
		s.entries = append(s.entries, &ActQuant{Scale: scales[i], Zero: zeros[i]})
	}
	return s
}

// resetCursor rewinds the registration cursor; CompileQuantized calls
// it so a recompile against the same set re-binds the same slots
// in the same deterministic order.
func (s *ActSet) resetCursor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursor = 0
}

// next returns the registration slot at the cursor, appending a fresh
// entry when the set is being built and re-binding (with the label) when
// it was restored from a container. Compile order is the identity that
// makes restored scales land on the right stages — including the head
// stage AppendDenseQuant registers after the compile pass proper.
func (s *ActSet) next(label string) *ActQuant {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.entries) <= s.cursor {
		s.entries = append(s.entries, &ActQuant{})
	}
	e := s.entries[s.cursor]
	s.cursor++
	e.Label = label
	return e
}

// Calibrate latches the scale of every entry not yet calibrated from one
// representative batch x. It runs x through net — the float32 program
// compiled from the layers the quantized program was — op by op, and
// observes the input of each Dense and Conv1D op as the entry registered
// in the same place: the GEMM ops of the one and the segment stages of
// the other come in the same compile order, and a layer outside every
// segment (a residual block, say) is one non-GEMM op in both.
func (s *ActSet) Calibrate(net *InferenceNet[float32], x *tensor.Tensor32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gemm := func(op InferOp[float32]) bool {
		switch op.(type) {
		case opDense[float32], opConv1D[float32]:
			return true
		}
		return false
	}
	stages := 0
	for _, op := range net.ops {
		if gemm(op) {
			stages++
		}
	}
	if stages != len(s.entries) {
		return fmt.Errorf("nn: calibrating %d activation entries through a program of %d GEMM ops", len(s.entries), stages)
	}
	next := s.entries
	for _, op := range net.ops {
		if gemm(op) {
			if e := next[0]; !e.Calibrated() {
				e.observe(x.Data())
			}
			if next = next[1:]; len(next) == 0 {
				break
			}
		}
		x = op.Apply(x)
	}
	for _, e := range s.entries {
		if !e.Calibrated() {
			e.latch()
		}
	}
	return nil
}

// Calibrated reports whether every registered entry has latched scales —
// the signal Save uses to decide whether the container carries an
// activation-scale section.
func (s *ActSet) Calibrated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return false
	}
	for _, e := range s.entries {
		if e.Scale == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of registered entries.
func (s *ActSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns the entries in compile order for reporting and
// serialization. The slice is a copy; the pointers are live.
func (s *ActSet) Entries() []*ActQuant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*ActQuant(nil), s.entries...)
}

// Params flattens the calibrated scales and zero points in compile
// order — the container payload.
func (s *ActSet) Params() (scales []float32, zeros []int8) {
	for _, e := range s.Entries() {
		scales = append(scales, e.Scale)
		zeros = append(zeros, e.Zero)
	}
	return
}

// String summarizes calibration state for logs.
func (s *ActSet) String() string {
	return fmt.Sprintf("ActSet{entries: %d, calibrated: %v}", s.Len(), s.Calibrated())
}
