//go:build !noasm

package tensor

import "os"

// AVX2 micro-kernels for the packed GEMM engine. Installed at init when
// the CPU reports AVX2 + FMA + OS-saved YMM state; excluded entirely by
// the `noasm` build tag and skipped at runtime when VARADE_NOASM is set,
// leaving the portable generic kernels in place.
//
// gemmKernel8x8AVX2 uses FMA — float32 is tolerance-gated, so fused
// rounding is fine. gemmKernel4x4AVX2 deliberately uses separate VMULPD/
// VADDPD: each output element's ascending-k single-accumulator chain
// then rounds exactly like the scalar Go loops, keeping the float64
// packed path bit-identical to the oracle (Go's compiler does not fuse
// on amd64).

// gemmKernel8x8AVX2 computes the 8×8 float32 tile update
// c[i*ldc+j] += Σ_p aP[p*8+i]·bP[p*8+j] with FMA.
//
//go:noescape
func gemmKernel8x8AVX2(c []float32, ldc int, aP, bP []float32, kc int)

// gemmKernel4x4AVX2 computes the 4×4 float64 tile update with separate
// multiply and add (bit-exact against the scalar oracle).
//
//go:noescape
func gemmKernel4x4AVX2(c []float64, ldc int, aP, bP []float64, kc int)

// gemvKernel8AVX2 is the one-row float32 kernel: row 0 of
// gemmKernel8x8AVX2 over npan panels, FMA, A read in place.
//
//go:noescape
func gemvKernel8AVX2(c, a, bP []float32, kc, npan int)

// gemvKernel4AVX2 is the one-row float64 kernel: row 0 of
// gemmKernel4x4AVX2 over npan panels, unfused.
//
//go:noescape
func gemvKernel4AVX2(c, a, bP []float64, kc, npan int)

// gemvRows4Kernel8AVX2 and gemvRows2Kernel8AVX2 are the four- and two-row
// float32 kernels: each step of B is loaded once and FMAed against every
// row's broadcast A value, each lane the one-row kernel's chain.
//
//go:noescape
func gemvRows4Kernel8AVX2(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int)

//go:noescape
func gemvRows2Kernel8AVX2(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int)

// gemvRows2Kernel4AVX2 is the two-row float64 kernel, unfused like
// gemvKernel4AVX2.
//
//go:noescape
func gemvRows2Kernel4AVX2(c []float64, ldc int, a []float64, lda int, bP []float64, kc, npan int)

// qgemmKernel4x16AVX2 computes the 4×16 int8 qGEMM tile update with
// VPMOVSXBW + VPMADDWD: exact int32 accumulation, bit-identical to the
// portable kernel.
//
//go:noescape
func qgemmKernel4x16AVX2(acc []int32, ldc int, aP []int16, bP []int8, kp int)

// transBQuadsAVX2 computes the four-column float64 TransB dot over the
// first 4·⌊len(a)/4⌋ steps (unfused, ascending-p per lane — the
// bit-exactness contract). The wrapper below finishes the tail in Go,
// which does not fuse on amd64, so the whole chain rounds exactly like
// the scalar oracle.
//
//go:noescape
func transBQuadsAVX2(dst, a, b []float64, ldb int)

// dotChunksAVX2 computes the float32 dot over the first 8·⌊len(a)/8⌋
// elements with 8-lane FMA (tolerance-gated; free to reassociate).
//
//go:noescape
func dotChunksAVX2(a, b []float32) float32

// transBKernel4x64AVX2 is the dispatch-installed float64 small-TransB
// kernel: SIMD quads in asm, scalar tail in Go.
func transBKernel4x64AVX2(dst, a, b []float64, ldb int) {
	k := len(a)
	transBQuadsAVX2(dst, a, b, ldb)
	for p := k &^ 3; p < k; p++ {
		av := a[p]
		dst[0] += av * b[p]
		dst[1] += av * b[ldb+p]
		dst[2] += av * b[2*ldb+p]
		dst[3] += av * b[3*ldb+p]
	}
}

// dotKernel32AVX2 is the dispatch-installed float32 small-TransB dot.
func dotKernel32AVX2(a, b []float32) float32 {
	s := dotChunksAVX2(a, b)
	for p := len(a) &^ 7; p < len(a); p++ {
		s += a[p] * b[p]
	}
	return s
}

// biasReLUChunks32AVX2 / biasReLUChunks64AVX2 run BiasReLU over the
// whole 8-lane (float32) or 4-lane (float64) chunks of x
// (biasrelu_amd64.s): VADD, then VMAX against +0.
//
//go:noescape
func biasReLUChunks32AVX2(x, b []float32)

//go:noescape
func biasReLUChunks64AVX2(x, b []float64)

// biasReLU32AVX2 / biasReLU64AVX2 are the dispatch-installed BiasReLU
// bodies: SIMD chunks in asm, the tail in Go. BiasReLU has checked that b
// covers x.
func biasReLU32AVX2(x, b []float32) {
	biasReLUChunks32AVX2(x, b)
	t := len(x) &^ 7
	biasReLUGeneric(x[t:], b[t:])
}

func biasReLU64AVX2(x, b []float64) {
	biasReLUChunks64AVX2(x, b)
	t := len(x) &^ 3
	biasReLUGeneric(x[t:], b[t:])
}

// quantChunksAVX2 quantizes the first 16·⌊len(src)/16⌋ elements of src
// into dst and returns that prefix's clip count (qrequant_amd64.s).
//
//go:noescape
func quantChunksAVX2(dst []int8, src []float32, inv, zf float32) int64

// requantPairsChunksAVX2 is the fused pair-interleaving requant for
// n % 16 == 0, returning high- and low-side saturation counts
// separately (the ReLU clip rule is applied by the wrapper). zn = -128
// makes the ReLU floor a no-op.
//
//go:noescape
func requantPairsChunksAVX2(dst []int8, acc []int32, ld, pairs, n int, zw, cw []int32, m, c []float32, zn int32) (hi, lo int64)

// packA4x16AVX2 packs the first 16·⌊k/16⌋ columns of four consecutive
// k-byte rows into the qGEMM int16 pair layout.
//
//go:noescape
func packA4x16AVX2(aP []int16, x []int8, k int)

// quantAffineAVX2 is the dispatch-installed QuantizeAffine kernel:
// SIMD chunks in asm, scalar tail in Go.
func quantAffineAVX2(dst []int8, src []float32, inv, zf float32) int {
	n := len(src)
	clipped := int(quantChunksAVX2(dst, src, inv, zf))
	for i := n &^ 15; i < n; i++ {
		q, c := QuantClamp(src[i]*inv + zf)
		dst[i] = q
		if c {
			clipped++
		}
	}
	return clipped
}

// requantPairsAVX2 is the dispatch-installed RequantPairs2 kernel.
// Channel counts off the 16-lane grid keep the portable path.
func requantPairsAVX2(dst []int8, acc []int32, ld, pairs, n int, zw, cw []int32, m, c []float32, zn int8, relu bool) int {
	if n%16 != 0 {
		return requantPairsGeneric(dst, acc, ld, pairs, n, zw, cw, m, c, zn, relu)
	}
	znw := int32(zn)
	if !relu {
		znw = -128 // floor at the type minimum: a no-op
	}
	hi, lo := requantPairsChunksAVX2(dst, acc, ld, pairs, n, zw, cw, m, c, znw)
	if relu {
		// Low-side saturations are floored by the fused ReLU exactly as
		// the float lane floors them to 0 — not lossy, not counted.
		return int(hi)
	}
	return int(hi + lo)
}

// qgemmPackAAVX2 is the dispatch-installed qGEMM A-pack: 16-column
// blocks in asm, the k tail (and odd-k pad) scalar.
func qgemmPackAAVX2(aP []int16, x []int8, k int) {
	packA4x16AVX2(aP, x, k)
	kp := qgemmKP(k)
	for i := 0; i < qgemmMR; i++ {
		row := x[i*k : (i+1)*k]
		for p := k &^ 15; p < k; p++ {
			aP[(p/qgemmKU)*qgemmMR*qgemmKU+i*qgemmKU+p%qgemmKU] = int16(row[p])
		}
		if k%qgemmKU != 0 {
			aP[(kp-1)*qgemmMR*qgemmKU+i*qgemmKU+1] = 0
		}
	}
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (OS-enabled SIMD state).
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether this CPU (and OS) can run the AVX2+FMA
// kernels: AVX + FMA + OSXSAVE advertised, YMM state saved by the OS,
// and AVX2 in the extended feature leaf.
func hasAVX2FMA() bool {
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&fmaBit == 0 || ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

func init() {
	if os.Getenv("VARADE_NOASM") != "" || !hasAVX2FMA() {
		return
	}
	gemmKern32 = gemmKernel8x8AVX2
	gemmKern64 = gemmKernel4x4AVX2
	gemvKern32 = gemvKernel8AVX2
	gemvKern64 = gemvKernel4AVX2
	gemvRows4Kern32 = gemvRows4Kernel8AVX2
	gemvRows2Kern32 = gemvRows2Kernel8AVX2
	gemvRows2Kern64 = gemvRows2Kernel4AVX2
	biasReLUKern32 = biasReLU32AVX2
	biasReLUKern64 = biasReLU64AVX2
	gemmKernelName = "avx2"
	qgemmKern = qgemmKernel4x16AVX2
	qgemmKernelName = "avx2"
	qgemmPackA = qgemmPackAAVX2
	quantAffineKern = quantAffineAVX2
	requantPairsKern = requantPairsAVX2
	dotKern32 = dotKernel32AVX2
	transBKern64 = transBKernel4x64AVX2
}
