package tensor

import (
	"fmt"
	"sync"
)

// Int8×int8 GEMM engine with exact int32 accumulation — the compute core
// of the true int8 inference lane. The contract mirrors the float packed
// engine (pack.go) but the arithmetic is integer, so *every* kernel
// (portable Go, AVX2, NEON) is bit-identical by construction: int32
// addition is exact and associative, and the raw products fit easily
// (|q| ≤ 127, so |acc| ≤ k·127² — see qgemmMaxK).
//
// The hot loop multiplies int8 activations against int8 weights packed
// once into B panels (QGemmPackB, the layout nn.QuantTensor.panels now
// produces) and accumulates into an int32 tile. Affine corrections
// (weight/activation zero points, row sums) and requantization happen in
// the caller once per output element — the kernel only ever sees the raw
// Σ qa·qb dot products.
//
// Tile geometry: MR=4 input rows × NR=16 output channels, with the k
// extent walked in pairs (KU=2). The pairing is what the SIMD kernels
// exploit: AVX2 sign-extends 16 packed weight bytes and VPMADDWDs them
// against a broadcast activation pair (two multiplies and an add per
// int32 lane in one instruction); NEON uses the widening SMLAL family
// against the same layout. The portable kernel walks the identical
// panels, so the packed format is one-per-matrix regardless of dispatch.
const (
	qgemmMR = 4
	qgemmNR = 16
	qgemmKU = 2

	// qgemmMaxK bounds the shared k extent: beyond it a worst-case
	// ascending dot could overflow the int32 accumulator. The extreme
	// product is (-128)² = 2^14, so k ≤ 2^16 keeps |acc| ≤ 2^30 with a
	// full bit of headroom. No VARADE layer is within two orders of
	// this, but the engine checks rather than assumes.
	qgemmMaxK = 1 << 16
)

// qgemmKP returns the packed pair count of a k extent (odd k gets one
// zero-padded slot).
func qgemmKP(k int) int { return (k + qgemmKU - 1) / qgemmKU }

// QGemmPackedLen returns the byte length of the packed B-panel form of a
// (rows, cols) int8 weight matrix: rows rounded up to whole NR panels,
// cols to whole pairs.
func QGemmPackedLen(rows, cols int) int {
	npan := (rows + qgemmNR - 1) / qgemmNR
	return npan * qgemmNR * qgemmKP(cols) * qgemmKU
}

// QGemmPackB packs a row-major int8 weight matrix w (rows × cols, rows =
// output channels) into the B-panel layout the qGEMM kernels consume:
//
//	dst[pan·(NR·kp·KU) + pp·(NR·KU) + ch·KU + kk] = w[(pan·NR+ch)·cols + pp·KU + kk]
//
// i.e. panel pan holds NR consecutive output channels, pair-major, with
// each channel's two k values adjacent (the VPMADDWD/SMLAL operand
// shape). Channel and k padding is zero, which contributes nothing to
// the integer dots. dst must have QGemmPackedLen(rows, cols) elements.
func QGemmPackB(dst, w []int8, rows, cols int) {
	if len(dst) != QGemmPackedLen(rows, cols) {
		panic(fmt.Sprintf("tensor: QGemmPackB dst %d, want %d", len(dst), QGemmPackedLen(rows, cols)))
	}
	kp := qgemmKP(cols)
	panLen := qgemmNR * kp * qgemmKU
	clear(dst)
	for r := 0; r < rows; r++ {
		pan, ch := r/qgemmNR, r%qgemmNR
		base := pan*panLen + ch*qgemmKU
		for p, v := range w[r*cols : (r+1)*cols] {
			dst[base+(p/qgemmKU)*(qgemmNR*qgemmKU)+p%qgemmKU] = v
		}
	}
}

// qgemmPackAGeneric is the portable A-pack: four full rows of x
// re-laid as sign-extended int16 pairs, aP[pp·(MR·KU) + i·KU + kk] =
// x[i·k + pp·KU + kk], with the odd-k pad slot zeroed.
func qgemmPackAGeneric(aP []int16, x []int8, k int) {
	kp := qgemmKP(k)
	for i := 0; i < qgemmMR; i++ {
		row := x[i*k : (i+1)*k]
		for p, v := range row {
			aP[(p/qgemmKU)*qgemmMR*qgemmKU+i*qgemmKU+p%qgemmKU] = int16(v)
		}
		if k%qgemmKU != 0 {
			aP[(kp-1)*qgemmMR*qgemmKU+i*qgemmKU+1] = 0
		}
	}
}

// QGemmTransB computes the raw integer products out[i·rows+r] =
// Σ_k x[i·k+c]·w[r,c] for row-major int8 activations x (m × k) against
// a weight matrix packed by QGemmPackB. out is m × rows, int32,
// overwritten. The affine dequantization corrections are the caller's
// business — this is exactly the Σ qx·qw term of the quantized GEMM
// identity, bit-identical across every kernel family.
func QGemmTransB(out []int32, x []int8, bP []int8, m, k, rows int) {
	if k > qgemmMaxK {
		panic(fmt.Sprintf("tensor: QGemmTransB k=%d exceeds int32 accumulator headroom (max %d)", k, qgemmMaxK))
	}
	if len(x) < m*k || len(out) < m*rows {
		panic("tensor: QGemmTransB slice lengths inconsistent with shape")
	}
	if want := QGemmPackedLen(rows, k); len(bP) != want {
		panic(fmt.Sprintf("tensor: QGemmTransB packed B %d, want %d", len(bP), want))
	}
	blocks := (m + qgemmMR - 1) / qgemmMR
	// Full MR×NR tiles accumulate straight into out (the kernels load
	// the C tile first), which needs out zeroed up front; ragged edges
	// still go through a scratch tile and a copy.
	clear(out[:m*rows])
	if blocks == 1 || Workers() == 1 || m*k*rows < parallelFlopThreshold {
		qgemmBlocks(out, x, bP, m, k, rows, 0, blocks)
		return
	}
	Parallel(blocks, func(lo, hi int) { qgemmBlocks(out, x, bP, m, k, rows, lo, hi) })
}

// qgemmScratch is one sweep's working set: the packed A block and the
// ragged-edge tile. Pooled, so a product allocates nothing once warm.
type qgemmScratch struct {
	aP   []int16
	tile [qgemmMR * qgemmNR]int32
}

var qgemmScratchPool = sync.Pool{New: func() any { return new(qgemmScratch) }}

// qgemmBlocks runs 4-row blocks [lo, hi) of QGemmTransB. It is a plain
// function, not a closure, so that a product that is not sharded
// allocates nothing.
func qgemmBlocks(out []int32, x, bP []int8, m, k, rows, lo, hi int) {
	s := qgemmScratchPool.Get().(*qgemmScratch)
	defer qgemmScratchPool.Put(s)
	kp := qgemmKP(k)
	npan := (rows + qgemmNR - 1) / qgemmNR
	panLen := qgemmNR * kp * qgemmKU
	kern := qgemmKern
	// The A block is re-packed per 4-row sweep into sign-extended int16
	// pairs (the operand width the multiply-accumulate instructions
	// consume): aP[pp·(MR·KU) + i·KU + kk] = x[i0+i, pp·KU+kk].
	if n := kp * qgemmMR * qgemmKU; cap(s.aP) < n {
		s.aP = make([]int16, n)
	}
	aP := s.aP[:kp*qgemmMR*qgemmKU]
	tile := s.tile[:]
	for blk := lo; blk < hi; blk++ {
		i0 := blk * qgemmMR
		mr := min(qgemmMR, m-i0)
		if mr == qgemmMR {
			qgemmPackA(aP, x[i0*k:(i0+qgemmMR)*k], k)
		} else {
			for i := 0; i < qgemmMR; i++ {
				if i >= mr {
					for pp := 0; pp < kp; pp++ {
						aP[pp*qgemmMR*qgemmKU+i*qgemmKU] = 0
						aP[pp*qgemmMR*qgemmKU+i*qgemmKU+1] = 0
					}
					continue
				}
				row := x[(i0+i)*k : (i0+i)*k+k]
				for p, v := range row {
					aP[(p/qgemmKU)*qgemmMR*qgemmKU+i*qgemmKU+p%qgemmKU] = int16(v)
				}
				if k%qgemmKU != 0 {
					aP[(kp-1)*qgemmMR*qgemmKU+i*qgemmKU+1] = 0
				}
			}
		}
		for q := 0; q < npan; q++ {
			r0 := q * qgemmNR
			nr := min(qgemmNR, rows-r0)
			if mr == qgemmMR && nr == qgemmNR {
				kern(out[i0*rows+r0:], rows, aP, bP[q*panLen:(q+1)*panLen], kp)
				continue
			}
			clear(tile)
			kern(tile, qgemmNR, aP, bP[q*panLen:(q+1)*panLen], kp)
			for i := 0; i < mr; i++ {
				copy(out[(i0+i)*rows+r0:(i0+i)*rows+r0+nr], tile[i*qgemmNR:i*qgemmNR+nr])
			}
		}
	}
}
