package nn

import (
	"fmt"
	"math"
	"sync"

	"varade/internal/tensor"
)

// Post-training per-channel affine int8 quantization for Dense/Conv
// weights. Each output channel r of a weight matrix is mapped to int8 via
//
//	q = clamp(round(w/scale[r]) + zero[r], -128, 127)
//	w ≈ (q - zero[r]) · scale[r]
//
// with the range anchored so that w = 0 is exactly representable (the zero
// point is always in range). Inference runs int8×int8 against these
// blocks through the tensor qGEMM engine (qseg.go), with activations
// quantized per tensor through calibrated scales (actquant.go).

// QuantTensor is a per-channel affine int8 quantization of a weight
// tensor, viewed as a (Rows, Cols) matrix whose rows are output channels.
type QuantTensor struct {
	Rows, Cols int
	Scale      []float32 // per-row scale, len Rows
	Zero       []int8    // per-row zero point, len Rows
	Q          []int8    // quantized values, Rows*Cols, row-major
	shape      []int     // original tensor shape

	// packed is the qGEMM B-panel layout of Q (tensor.QGemmPackB), built
	// lazily once — weights are immutable after quantization.
	packOnce sync.Once
	packed   []int8

	// rowSums is Σ_c Q[r,c] per output row, the rsW term of the affine
	// qGEMM correction; lazy for the same reason.
	rsOnce  sync.Once
	rowSums []int32
}

// Shape returns the original (pre-flattening) tensor shape.
func (q *QuantTensor) Shape() []int { return q.shape }

// NumBytes returns the serving-resident size of the quantized
// representation: the stored values, the per-channel parameters, and the
// packed panel copy the qGEMM kernels consume (~1 extra byte per
// parameter; packed with the synthetic row-sum channel panels appends) —
// the figure edge.ModelBytesFor projections budget against.
func (q *QuantTensor) NumBytes() int {
	return len(q.Q) + tensor.QGemmPackedLen(q.Rows+1, q.Cols) + 5*q.Rows
}

// SliceRows returns a view of output-channel rows [lo, hi): the exact
// stored quantization of those channels, with no requantization. The
// backing slices are shared.
func (q *QuantTensor) SliceRows(lo, hi int) *QuantTensor {
	if lo < 0 || hi > q.Rows || lo > hi {
		panic(fmt.Sprintf("nn: QuantTensor.SliceRows [%d,%d) out of range for %d rows", lo, hi, q.Rows))
	}
	return &QuantTensor{
		Rows:  hi - lo,
		Cols:  q.Cols,
		Scale: q.Scale[lo:hi],
		Zero:  q.Zero[lo:hi],
		Q:     q.Q[lo*q.Cols : hi*q.Cols],
		shape: []int{hi - lo, q.Cols},
	}
}

// Ensure returns the cache's quantization of p, quantizing (rows, cols)
// and recording it on first use.
func (c QuantCache) Ensure(p *Param, rows, cols int) *QuantTensor {
	return quantFor(c, p, rows, cols)
}

// QuantizeRows quantizes w, viewed as (rows, cols) with rows = output
// channels, to per-channel affine int8.
func QuantizeRows(w *tensor.Tensor, rows, cols int) *QuantTensor {
	if rows*cols != w.Len() {
		panic(fmt.Sprintf("nn: QuantizeRows %dx%d incompatible with %d elements", rows, cols, w.Len()))
	}
	q := &QuantTensor{
		Rows:  rows,
		Cols:  cols,
		Scale: make([]float32, rows),
		Zero:  make([]int8, rows),
		Q:     make([]int8, rows*cols),
		shape: append([]int(nil), w.Shape()...),
	}
	wd := w.Data()
	for r := 0; r < rows; r++ {
		row := wd[r*cols : (r+1)*cols]
		// Anchor the range at zero so zero weights stay exact.
		lo, hi := 0.0, 0.0
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale := (hi - lo) / 255
		if scale <= 0 {
			q.Scale[r], q.Zero[r] = 1, 0
			continue // all-zero row quantizes to zero
		}
		zp := math.Round(-128 - lo/scale)
		if zp < -128 {
			zp = -128
		} else if zp > 127 {
			zp = 127
		}
		q.Scale[r] = float32(scale)
		q.Zero[r] = int8(zp)
		for c, v := range row {
			qv := math.Round(v/scale) + zp
			if qv < -128 {
				qv = -128
			} else if qv > 127 {
				qv = 127
			}
			q.Q[r*cols+c] = int8(qv)
		}
	}
	return q
}

// Dequantize reconstructs the float64 weight tensor in its original shape.
func (q *QuantTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.shape...)
	od := out.Data()
	for r := 0; r < q.Rows; r++ {
		s, z := float64(q.Scale[r]), float64(q.Zero[r])
		for c := 0; c < q.Cols; c++ {
			od[r*q.Cols+c] = (float64(q.Q[r*q.Cols+c]) - z) * s
		}
	}
	return out
}

// MaxAbsError returns the largest |w - dequant(quant(w))| over all
// elements — the quantization noise floor, useful for tolerance checks.
func (q *QuantTensor) MaxAbsError(w *tensor.Tensor) float64 {
	wd, dd := w.Data(), q.Dequantize().Data()
	worst := 0.0
	for i := range wd {
		if d := math.Abs(wd[i] - dd[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// panels returns (building lazily, once — quantized weights are
// immutable) the qGEMM B-panel layout of Q augmented with one trailing
// all-ones output channel, exactly the format tensor.QGemmTransB
// consumes at rows = Rows+1. The synthetic channel makes the GEMM's
// extra output column Σ_c qx[i,c] — the rsX term of the affine
// correction — so the row sums of every activation matrix come out of
// the same kernel pass that computes the dots, and nothing downstream
// ever re-walks the int8 activations. The pack is a second resident
// copy of the int8 values (~1 extra byte per parameter while serving,
// which NumBytes counts), paid only by instances that actually run the
// int8 GEMM.
func (q *QuantTensor) panels() []int8 {
	q.packOnce.Do(func() {
		wq := make([]int8, (q.Rows+1)*q.Cols)
		copy(wq, q.Q)
		ones := wq[q.Rows*q.Cols:]
		for i := range ones {
			ones[i] = 1
		}
		p := make([]int8, tensor.QGemmPackedLen(q.Rows+1, q.Cols))
		tensor.QGemmPackB(p, wq, q.Rows+1, q.Cols)
		q.packed = p
	})
	return q.packed
}

// RowSums returns (building lazily, once) Σ_c Q[r,c] per output row: the
// rsW term that corrects the raw integer dot for the activation zero
// point in the quantized GEMM identity.
func (q *QuantTensor) RowSums() []int32 {
	q.rsOnce.Do(func() {
		rs := make([]int32, q.Rows)
		for r := 0; r < q.Rows; r++ {
			var s int32
			for _, v := range q.Q[r*q.Cols : (r+1)*q.Cols] {
				s += int32(v)
			}
			rs[r] = s
		}
		q.rowSums = rs
	})
	return q.rowSums
}
