package tensor

import "fmt"

// GEMM kernels, generic over the Float element type. All three
// multiplication variants come in an allocating form (MatMul, MatMulTransB,
// MatMulTransA) and an in-place form (MatMulInto, …) that writes into a
// caller-supplied destination — usually one carved from an Arena — so hot
// paths run allocation-free.
//
// Row blocks are distributed over the package worker pool (see Parallel)
// once the problem is large enough to amortise goroutine handoff; small
// products run inline. The float32 instantiation moves half the bytes per
// multiply-add, which is where the inference fast path's bandwidth win
// comes from.

// parallelFlopThreshold is the approximate multiply-add count below which
// a product is not worth splitting across workers.
const parallelFlopThreshold = 64 * 1024

func check2D[T Float](op string, a, b *Dense[T]) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: " + op + " needs 2-D tensors")
	}
}

func checkDst[T Float](op string, dst *Dense[T], m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want (%d,%d)", op, dst.shape, m, n))
	}
}

// MatMul returns the matrix product a·b of two 2-D tensors.
// a has shape (m, k) and b has shape (k, n); the result is (m, n).
func MatMul[T Float](a, b *Dense[T]) *Dense[T] {
	check2D("MatMul", a, b)
	out := NewOf[T](a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, overwriting dst. dst must not alias a or b.
//
// Products large enough to amortise the packing copies run through the
// packed micro-kernel engine (pack.go) — cache-blocked panels swept by a
// register-blocked, possibly SIMD, kernel, bit-identical at float64 to
// the scalar path below. Small products keep the direct loops: ordered
// (i, p, j) so b is scanned row-contiguously, rows of a sharded across
// the worker pool.
func MatMulInto[T Float](dst, a, b *Dense[T]) {
	check2D("MatMul", a, b)
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	checkDst("MatMul", dst, m, n)
	ad, bd, od := a.data, b.data, dst.data
	if usePacked(m, k, n) {
		gemmPackedInto(od, ad, bd, nil, m, n, k, false)
		return
	}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			orow := od[i*n : (i+1)*n]
			for j := range orow {
				orow[j] = 0
			}
			for p := 0; p < k; p++ {
				av := arow[p]
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	if m*k*n < parallelFlopThreshold {
		body(0, m)
		return
	}
	Parallel(m, body)
}

// MatMulTransB returns a·bᵀ where a is (m, k) and b is (n, k); result (m, n).
// This avoids materialising the transpose when multiplying by weight
// matrices stored row-major as (out, in).
func MatMulTransB[T Float](a, b *Dense[T]) *Dense[T] {
	check2D("MatMulTransB", a, b)
	out := NewOf[T](a.shape[0], b.shape[0])
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ, overwriting dst.
//
// Large products run through the packed engine: b's rows are packed as
// panel columns, so the same micro-kernels serve both orientations (and
// the float64 packed path keeps the historical single-accumulator
// ascending-k order — it is the bit-exactness oracle, and training
// depends on reproducible arithmetic). Small products — LSTM steps,
// narrow compiled-net tails — and products of fewer rows than one
// micro-kernel tile skip packing entirely and run the dispatched no-copy
// kernels (dispatch.go): a wide FMA dot per element
// at float32, and a four-column kernel at float64 that advances four
// single-chain accumulators together so the oracle order survives.
// Tiny inner extents (k below one SIMD chunk) stay on the inline scalar
// loops: the dispatched kernels would do all their work in the tail and
// the per-element call overhead dominates — a leading stride-2 conv at
// k = 2 is ~40% slower through the kernel path.
func MatMulTransBInto[T Float](dst, a, b *Dense[T]) {
	check2D("MatMulTransB", a, b)
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", k, k2))
	}
	checkDst("MatMulTransB", dst, m, n)
	ad, bd, od := a.data, b.data, dst.data
	// With fewer rows than one tile, packing b — k·n copies whatever m is —
	// costs more than the product; the no-copy kernels below win.
	if mr, _ := gemmTiles[T](); m >= mr && usePacked(m, k, n) {
		gemmPackedInto(od, ad, bd, nil, m, n, k, true)
		return
	}
	if m == 1 || Workers() == 1 || m*k*n < parallelFlopThreshold {
		transBRows(od, ad, bd, k, n, 0, m)
		return
	}
	Parallel(m, func(lo, hi int) { transBRows(od, ad, bd, k, n, lo, hi) })
}

// transBRows computes rows [lo, hi) of od = a·bᵀ with the no-copy kernels.
// It is a plain function, not a closure, so that a product that is not
// sharded — one row, one worker, or too little work — allocates nothing.
func transBRows[T Float](od, ad, bd []T, k, n, lo, hi int) {
	switch o := any(od).(type) {
	case []float32:
		if k < 8 {
			break // all-tail for the wide dot kernel: inline loops win
		}
		a32, b32 := any(ad).([]float32), any(bd).([]float32)
		kern := dotKern32
		for i := lo; i < hi; i++ {
			arow := a32[i*k : (i+1)*k]
			orow := o[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] = kern(arow, b32[j*k:(j+1)*k])
			}
		}
		return
	case []float64:
		if k < 4 || n < 4 {
			break // ditto for the four-column quad kernel
		}
		a64, b64 := any(ad).([]float64), any(bd).([]float64)
		kern := transBKern64
		for i := lo; i < hi; i++ {
			arow := a64[i*k : (i+1)*k]
			orow := o[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				kern(orow[j:j+4], arow, b64[j*k:], k)
			}
			for ; j < n; j++ {
				brow := b64[j*k : (j+1)*k]
				var s float64
				for p, av := range arow {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// MatMulTransA returns aᵀ·b where a is (k, m) and b is (k, n); result (m, n).
// Used for weight gradients: dW = xᵀ·dy without materialising xᵀ.
func MatMulTransA[T Float](a, b *Dense[T]) *Dense[T] {
	check2D("MatMulTransA", a, b)
	out := NewOf[T](a.shape[1], b.shape[1])
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b, overwriting dst.
//
// The reduction runs down a's rows, so splitting over output rows would
// stride badly; instead output rows are sharded and each worker walks the
// full k extent touching only its own output block.
func MatMulTransAInto[T Float](dst, a, b *Dense[T]) {
	check2D("MatMulTransA", a, b)
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", k, k2))
	}
	checkDst("MatMulTransA", dst, m, n)
	ad, bd, od := a.data, b.data, dst.data
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := od[i*n : (i+1)*n]
			for j := range orow {
				orow[j] = 0
			}
		}
		for p := 0; p < k; p++ {
			arow := ad[p*m : p*m+m]
			brow := bd[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				orow := od[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	if m*k*n < parallelFlopThreshold {
		body(0, m)
		return
	}
	Parallel(m, body)
}

// MatVec returns the matrix-vector product a·x where a is (m, n) and x has
// length n; the result has length m.
func MatVec[T Float](a, x *Dense[T]) *Dense[T] {
	if len(a.shape) != 2 || len(x.shape) != 1 {
		panic("tensor: MatVec needs a 2-D matrix and 1-D vector")
	}
	m, n := a.shape[0], a.shape[1]
	if x.shape[0] != n {
		panic(fmt.Sprintf("tensor: MatVec dims (%d,%d)·%d", m, n, x.shape[0]))
	}
	out := NewOf[T](m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		var s T
		for j, v := range row {
			s += v * x.data[j]
		}
		out.data[i] = s
	}
	return out
}

// Outer returns the outer product x·yᵀ of two vectors: shape (len(x), len(y)).
func Outer[T Float](x, y *Dense[T]) *Dense[T] {
	if len(x.shape) != 1 || len(y.shape) != 1 {
		panic("tensor: Outer needs 1-D tensors")
	}
	m, n := x.shape[0], y.shape[0]
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		xi := x.data[i]
		row := out.data[i*n : (i+1)*n]
		for j, yj := range y.data {
			row[j] = xi * yj
		}
	}
	return out
}
