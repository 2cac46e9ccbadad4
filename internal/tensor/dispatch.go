package tensor

// Runtime micro-kernel dispatch. The packed engine (pack.go) calls
// whatever kernels these package variables hold: the portable generic
// kernels by default, upgraded once at init by the GOARCH-gated files
// (microkernel_amd64.go, microkernel_arm64.go) when the CPU supports the
// assembly path and it is not disabled. Two switches force the portable
// path:
//
//   - build tag `noasm` — the assembly files are excluded entirely, so
//     the binary cannot contain the asm kernels;
//   - env VARADE_NOASM (any non-empty value) — the asm is present but
//     the init hook leaves the generic kernels installed.
//
// A micro-kernel computes C(tile) += aP·bP over kc packed steps:
// c[i*ldc+j] += Σ_p aP[p*MR+i]·bP[p*NR+j], loading the C tile first and
// accumulating each element along a single ascending-p chain (the
// float64 bit-exactness contract; see pack.go).
var (
	gemmKern32 func(c []float32, ldc int, aP, bP []float32, kc int) = gemmKernelGeneric32
	gemmKern64 func(c []float64, ldc int, aP, bP []float64, kc int) = gemmKernelGeneric64

	// gemvKern32/gemvKern64 are the one-row kernels: a row panel holding a
	// single row of A reads that row in place against npan whole NR-column
	// panels of the same packed B block, c[q*NR+j] += Σ_p a[p]·bP[(q*kc+p)*NR+j].
	// Each lane is the ascending-p chain row 0 of the tile kernel of the
	// same family carries, rounded the same way, so the one-row path is
	// bit-identical to the tile path at both widths.
	gemvKern32 func(c, a, bP []float32, kc, npan int) = gemvKernelGeneric32
	gemvKern64 func(c, a, bP []float64, kc, npan int) = gemvKernelGeneric64

	// gemvRows4Kern32, gemvRows2Kern32 and gemvRows2Kern64 are the one-row
	// kernels' product for four or two rows of A at once (row strides ldc
	// and lda): c[r·ldc+q·NR+j] += Σ_p a[r·lda+p]·bP[(q·kc+p)·NR+j], so a
	// short row panel loads each step of B once for all of them. Each lane
	// is its row's one-row chain, so they are bit-identical to the one-row
	// and the tile kernels. Float64 short panels hold at most three rows,
	// so it has no four-row kernel.
	gemvRows4Kern32 func(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int) = gemvRows4Generic32
	gemvRows2Kern32 func(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int) = gemvRows2Generic32
	gemvRows2Kern64 func(c []float64, ldc int, a []float64, lda int, bP []float64, kc, npan int) = gemvRows2Generic64

	// qgemmKern is the int8×int8 micro-kernel of the quantized engine
	// (qgemm.go): acc(4×16, int32) += Σ_pp aP(pair)·bP(panel pair).
	// Accumulation is exact integer arithmetic, so every implementation
	// is bit-identical — dispatch here is purely a throughput choice.
	qgemmKern func(acc []int32, ldc int, aP []int16, bP []int8, kp int) = qgemmKernelGeneric

	// qgemmPackA packs four full consecutive activation rows (x holds
	// exactly 4·k int8 values) into the sign-extended int16 pair layout
	// the qGEMM micro-kernel broadcasts from:
	// aP[pp·8 + i·2 + kk] = x[i·k + pp·2 + kk], odd-k pad slot zeroed.
	// Pure data movement, so every implementation is bit-identical.
	qgemmPackA func(aP []int16, x []int8, k int) = qgemmPackAGeneric

	// quantAffineKern / requantPairsKern are the elementwise int8-lane
	// kernels (qrequant.go): activation quantization and the fused
	// GEMM-output requantization. Bit-identical across implementations
	// for finite |v| < 2³¹ — see the qrequant.go contract.
	quantAffineKern  func(dst []int8, src []float32, inv, zf float32) int                                                    = quantAffineGeneric
	requantPairsKern func(dst []int8, acc []int32, ld, pairs, n int, zw, cw []int32, m, c []float32, zn int8, relu bool) int = requantPairsGeneric

	// dotKern32 is the small-product float32 TransB dot kernel: products
	// under the packing threshold call it once per output element.
	// Float32 is tolerance-gated, so implementations may reassociate
	// and fuse freely.
	dotKern32 func(a, b []float32) float32 = dotKernelGeneric32

	// transBKern64 is the small-product float64 TransB kernel: dst[j] =
	// Σ_p a[p]·b[j·ldb+p] for four B rows, each output element a single
	// ascending-p accumulator chain — the float64 bit-exactness
	// contract, SIMD'd across the four output columns rather than along
	// k so the per-element order never changes.
	transBKern64 func(dst, a, b []float64, ldb int) = transBKernelGeneric64

	// biasReLUKern32/biasReLUKern64 are BiasReLU's bodies (biasrelu.go):
	// x[i] = max(x[i]+b[i], +0), with NaN and −0 mapped to +0. One rounded
	// add and a select, so every implementation is bit-identical.
	biasReLUKern32 func(x, b []float32) = biasReLUGeneric[float32]
	biasReLUKern64 func(x, b []float64) = biasReLUGeneric[float64]

	// gemmKernelName names the installed kernel family ("generic",
	// "avx2", "neon") so benchmarks and CI logs can record which path
	// produced their numbers. qgemmKernelName does the same for the
	// int8 engine (the families can differ: e.g. an AVX-but-not-AVX2
	// host, or a future SDOT-gated NEON variant).
	gemmKernelName  = "generic"
	qgemmKernelName = "generic"
)

// GemmKernelName reports which micro-kernel family the packed GEMM
// engine dispatches to on this process: "avx2", "neon" or "generic".
func GemmKernelName() string { return gemmKernelName }

// QGemmKernelName reports which micro-kernel family the int8 qGEMM
// engine dispatches to on this process: "avx2", "neon" or "generic".
func QGemmKernelName() string { return qgemmKernelName }

// microKernelFor resolves the active micro-kernel at element type T.
func microKernelFor[T Float]() func(c []T, ldc int, aP, bP []T, kc int) {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(gemmKern32).(func(c []T, ldc int, aP, bP []T, kc int))
	}
	return any(gemmKern64).(func(c []T, ldc int, aP, bP []T, kc int))
}

// gemvKernelFor resolves the active one-row kernel at element type T.
func gemvKernelFor[T Float]() func(c, a, bP []T, kc, npan int) {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(gemvKern32).(func(c, a, bP []T, kc, npan int))
	}
	return any(gemvKern64).(func(c, a, bP []T, kc, npan int))
}

// gemvRowsKernelsFor resolves the active multi-row kernels at element type
// T; rows4 is nil at float64.
func gemvRowsKernelsFor[T Float]() (rows4, rows2 func(c []T, ldc int, a []T, lda int, bP []T, kc, npan int)) {
	type kern = func(c []T, ldc int, a []T, lda int, bP []T, kc, npan int)
	var z T
	if _, ok := any(z).(float32); ok {
		return any(gemvRows4Kern32).(kern), any(gemvRows2Kern32).(kern)
	}
	return nil, any(gemvRows2Kern64).(kern)
}

// The portable kernels hold one C row in registers per pass — eight
// (float32) or four (float64) accumulators plus the broadcast A value
// stays inside the sixteen FP registers of every 64-bit target, so the
// hot loop never spills. Each accumulator is a single ascending-p chain,
// which is what keeps the float64 instantiation bit-exact against the
// scalar oracle. The A panel is re-streamed once per row; at kc ≤ 256 it
// is L1-resident by construction.

// gemmKernelGeneric32 is the portable 8×8 float32 micro-kernel over the
// same packed panels the AVX2/NEON kernels consume.
func gemmKernelGeneric32(c []float32, ldc int, aP, bP []float32, kc int) {
	for i := 0; i < 8; i++ {
		row := c[i*ldc : i*ldc+8]
		c0, c1, c2, c3 := row[0], row[1], row[2], row[3]
		c4, c5, c6, c7 := row[4], row[5], row[6], row[7]
		ao, bo := i, 0
		for p := 0; p < kc; p++ {
			av := aP[ao]
			bv := bP[bo : bo+8 : bo+8]
			c0 += av * bv[0]
			c1 += av * bv[1]
			c2 += av * bv[2]
			c3 += av * bv[3]
			c4 += av * bv[4]
			c5 += av * bv[5]
			c6 += av * bv[6]
			c7 += av * bv[7]
			ao += 8
			bo += 8
		}
		row[0], row[1], row[2], row[3] = c0, c1, c2, c3
		row[4], row[5], row[6], row[7] = c4, c5, c6, c7
	}
}

// gemmKernelGeneric64 is the portable 4×4 float64 micro-kernel,
// order-exact against the scalar loops.
func gemmKernelGeneric64(c []float64, ldc int, aP, bP []float64, kc int) {
	for i := 0; i < 4; i++ {
		row := c[i*ldc : i*ldc+4]
		c0, c1, c2, c3 := row[0], row[1], row[2], row[3]
		ao, bo := i, 0
		for p := 0; p < kc; p++ {
			av := aP[ao]
			bv := bP[bo : bo+4 : bo+4]
			c0 += av * bv[0]
			c1 += av * bv[1]
			c2 += av * bv[2]
			c3 += av * bv[3]
			ao += 4
			bo += 4
		}
		row[0], row[1], row[2], row[3] = c0, c1, c2, c3
	}
}

// gemvKernelGeneric32 is the portable one-row float32 kernel: the 8×8
// kernel's row-0 loop, once per panel, with A read in place.
func gemvKernelGeneric32(c, a, bP []float32, kc, npan int) {
	a = a[:kc]
	for q := 0; q < npan; q++ {
		row := c[q*8 : q*8+8]
		c0, c1, c2, c3 := row[0], row[1], row[2], row[3]
		c4, c5, c6, c7 := row[4], row[5], row[6], row[7]
		bo := q * kc * 8
		for _, av := range a {
			bv := bP[bo : bo+8 : bo+8]
			c0 += av * bv[0]
			c1 += av * bv[1]
			c2 += av * bv[2]
			c3 += av * bv[3]
			c4 += av * bv[4]
			c5 += av * bv[5]
			c6 += av * bv[6]
			c7 += av * bv[7]
			bo += 8
		}
		row[0], row[1], row[2], row[3] = c0, c1, c2, c3
		row[4], row[5], row[6], row[7] = c4, c5, c6, c7
	}
}

// gemvKernelGeneric64 is the portable one-row float64 kernel, the 4×4
// kernel's row-0 loop: order-exact against the scalar loops.
func gemvKernelGeneric64(c, a, bP []float64, kc, npan int) {
	a = a[:kc]
	for q := 0; q < npan; q++ {
		row := c[q*4 : q*4+4]
		c0, c1, c2, c3 := row[0], row[1], row[2], row[3]
		bo := q * kc * 4
		for _, av := range a {
			bv := bP[bo : bo+4 : bo+4]
			c0 += av * bv[0]
			c1 += av * bv[1]
			c2 += av * bv[2]
			c3 += av * bv[3]
			bo += 4
		}
		row[0], row[1], row[2], row[3] = c0, c1, c2, c3
	}
}

// gemvRows4Generic32, gemvRows2Generic32 and gemvRows2Generic64 are the
// portable multi-row kernels: the portable one-row kernel once per row.
// Go holds no more than one row's accumulators in registers, so loading B
// once for several rows would only spill them.
func gemvRows4Generic32(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int) {
	for r := 0; r < 4; r++ {
		gemvKernelGeneric32(c[r*ldc:], a[r*lda:], bP, kc, npan)
	}
}

func gemvRows2Generic32(c []float32, ldc int, a []float32, lda int, bP []float32, kc, npan int) {
	for r := 0; r < 2; r++ {
		gemvKernelGeneric32(c[r*ldc:], a[r*lda:], bP, kc, npan)
	}
}

func gemvRows2Generic64(c []float64, ldc int, a []float64, lda int, bP []float64, kc, npan int) {
	for r := 0; r < 2; r++ {
		gemvKernelGeneric64(c[r*ldc:], a[r*lda:], bP, kc, npan)
	}
}

// qgemmKernelGeneric is the portable 4×16 int8 micro-kernel over the
// qGEMM pair panels (qgemm.go): acc[i·ldc+j] += Σ_pp aP-pair(i)·bP-pair(j).
// Exact int32 arithmetic, so it is bit-identical to the SIMD kernels by
// construction — the cross-kernel suite checks equality, not tolerance.
func qgemmKernelGeneric(acc []int32, ldc int, aP []int16, bP []int8, kp int) {
	for i := 0; i < 4; i++ {
		row := acc[i*ldc : i*ldc+16]
		for pp := 0; pp < kp; pp++ {
			a0 := int32(aP[pp*8+i*2])
			a1 := int32(aP[pp*8+i*2+1])
			bq := bP[pp*32 : pp*32+32 : pp*32+32]
			for j := 0; j < 16; j++ {
				row[j] += a0*int32(bq[j*2]) + a1*int32(bq[j*2+1])
			}
		}
	}
}

// dotKernelGeneric32 is the portable float32 small-product dot: four
// independent accumulator chains break the FP-add latency dependency
// (the historical small-TransB fast path, now behind the dispatch var so
// AVX2/NEON can replace it with wide FMA dots).
func dotKernelGeneric32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * b[p]
		s1 += a[p+1] * b[p+1]
		s2 += a[p+2] * b[p+2]
		s3 += a[p+3] * b[p+3]
	}
	for ; p < len(a); p++ {
		s0 += a[p] * b[p]
	}
	return (s0 + s1) + (s2 + s3)
}

// transBKernelGeneric64 is the portable four-column float64 TransB
// kernel. Each dst[j] is one ascending-p chain — identical rounding to
// the scalar loops, just four chains advanced together.
func transBKernelGeneric64(dst, a, b []float64, ldb int) {
	k := len(a)
	b0 := b[0:k:k]
	b1 := b[ldb : ldb+k : ldb+k]
	b2 := b[2*ldb : 2*ldb+k : 2*ldb+k]
	b3 := b[3*ldb : 3*ldb+k : 3*ldb+k]
	var s0, s1, s2, s3 float64
	for p, av := range a {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
}
