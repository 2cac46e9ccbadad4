package tensor

import "fmt"

// Elementwise kernels of the int8 inference lane, dispatch-upgraded like
// the GEMM micro-kernels (dispatch.go): affine float32 → int8 activation
// quantization, and the fused requantization that turns a quantized
// GEMM's int32 accumulators straight into the next stage's int8
// activations. Both run once per activation element per stage, so on
// small models they cost more than the GEMMs they surround — which is
// why they dispatch to SIMD instead of staying scalar glue.
//
// Every implementation is bit-identical to the portable one for finite
// inputs with |v| < 2³¹ (rounding is nearest-even in all of them:
// the scalar magic-constant trick and VCVTPS2DQ agree); tests compare
// equality, not tolerance. Calibrated scales keep real activations
// orders of magnitude inside that domain.

// quantRoundMagic rounds a float32 to nearest-even when added and
// subtracted: 1.5·2²³ puts any |v| ≲ 2²² into the [2²³, 2²⁴) binade,
// where the representable floats are exactly the integers. Two adds and
// no data-dependent branch — the sign test a half-away-from-zero round
// would need mispredicts on zero-mean activations.
const quantRoundMagic = float32(12582912)

// QuantClamp rounds v (already scaled and offset by the zero point) to
// nearest-even and clamps to int8, reporting whether the value
// saturated — the event the calibration report's clipped fraction
// counts. The guards are cold for calibrated scales.
func QuantClamp(v float32) (int8, bool) {
	if v >= 127.5 {
		return 127, true
	}
	if v <= -128.5 {
		return -128, true
	}
	return int8(int32((v + quantRoundMagic) - quantRoundMagic)), false
}

// Requant is the requantization of one quantized-GEMM output v (already
// corrected, scaled and offset into the next stage's domain), the one
// per-element routine of every scalar requant writer: QuantClamp's
// rounding and clamp, floored at floor — the next stage's zero point under
// a fused ReLU, −128 otherwise. Behind a ReLU about half of all values
// fall below the range, so the clamp and the floor are int32 min/max
// (conditional moves) rather than QuantClamp's branches, which mispredict
// that often; on the documented domain |v| < 2³¹ the result is
// QuantClamp's, floored. lossy counts the saturations the float lane does
// not make: high-side always, low-side only without relu, since a fused
// ReLU floors those values exactly as the float lane does.
func Requant(v float32, floor int32, relu bool) (q int8, lossy bool) {
	lossy = v >= 127.5 || (!relu && v <= -128.5)
	r := int32((v + quantRoundMagic) - quantRoundMagic)
	return int8(min(max(r, floor), 127)), lossy
}

// RequantFloor is the floor Requant takes for a stage whose next zero
// point is zn.
func RequantFloor(zn int8, relu bool) int32 {
	if relu {
		return int32(zn)
	}
	return -128
}

// QuantizeAffine quantizes src elementwise into dst — dst[i] =
// clamp(round(src[i]·inv + zf)) — and returns how many elements
// saturated. dst must be at least as long as src.
func QuantizeAffine(dst []int8, src []float32, inv, zf float32) int {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: QuantizeAffine dst %d shorter than src %d", len(dst), len(src)))
	}
	return quantAffineKern(dst, src, inv, zf)
}

// quantAffineGeneric is the portable QuantizeAffine kernel.
func quantAffineGeneric(dst []int8, src []float32, inv, zf float32) int {
	clipped := 0
	for i, v := range src {
		q, c := QuantClamp(v*inv + zf)
		dst[i] = q
		if c {
			clipped++
		}
	}
	return clipped
}

// RequantPairs2 requantizes 2·pairs rows of a quantized GEMM's int32
// output into pairs int8 rows of 2·n bytes each, even/odd source rows
// byte-interleaved:
//
//	dst[u·2n + j·2 + r] = requant(acc[(2u+r)·ld + j])    r = 0, 1
//
// where requant applies the per-channel affine correction
// corr = acc − zw[j]·rs + cw[j], v = m[j]·corr + c[j], rounds, clamps to
// int8, and (when relu) floors the result at zn. rs is the row's own
// activation sum, read from acc column n — the synthetic all-ones output
// channel the nn layer packs after the real ones (ld > n).
//
// The interleave is exactly the im2col layout of a following stride-2
// kernel-2 convolution, so for the VARADE trunk one call per stage
// writes the next stage's A-matrix directly. Returns the lossy-clip
// count: high-side saturations always, low-side only without relu (a
// fused ReLU floors those values exactly as the float lane does).
func RequantPairs2(dst []int8, acc []int32, ld, pairs, n int, zw, cw []int32, m, c []float32, zn int8, relu bool) int {
	if pairs == 0 || n == 0 {
		return 0
	}
	if ld <= n {
		panic(fmt.Sprintf("tensor: RequantPairs2 ld %d must exceed n %d (row-sum column)", ld, n))
	}
	if need := (2*pairs-1)*ld + n + 1; len(acc) < need {
		panic(fmt.Sprintf("tensor: RequantPairs2 acc %d, need %d", len(acc), need))
	}
	if len(dst) < pairs*2*n {
		panic(fmt.Sprintf("tensor: RequantPairs2 dst %d, need %d", len(dst), pairs*2*n))
	}
	if len(zw) < n || len(cw) < n || len(m) < n || len(c) < n {
		panic("tensor: RequantPairs2 per-channel tables shorter than n")
	}
	return requantPairsKern(dst, acc, ld, pairs, n, zw, cw, m, c, zn, relu)
}

// requantPairsGeneric is the portable RequantPairs2 kernel.
func requantPairsGeneric(dst []int8, acc []int32, ld, pairs, n int, zw, cw []int32, m, c []float32, zn int8, relu bool) int {
	clipped := 0
	floor := RequantFloor(zn, relu)
	for u := 0; u < pairs; u++ {
		out := dst[u*2*n : (u+1)*2*n]
		for r := 0; r < 2; r++ {
			row := acc[(2*u+r)*ld : (2*u+r)*ld+n]
			rs := acc[(2*u+r)*ld+n]
			for j, a := range row {
				q, lossy := Requant(m[j]*float32(a-zw[j]*rs+cw[j])+c[j], floor, relu)
				if lossy {
					clipped++
				}
				out[j*2+r] = q
			}
		}
	}
	return clipped
}
