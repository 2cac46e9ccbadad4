package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Cross-kernel equivalence: the packed engine must agree with the scalar
// loops under every kernel family — bit-for-bit at float64 (the oracle
// contract), within 1e-4 relative at float32 — across shapes that are
// not multiples of the tile sizes and shapes that cross the gemmKC/NC
// cache-block boundaries (where the ascending-k chain is easiest to
// break), with B packed per call and pre-packed. Under
// `-tags noasm` the same tests prove the portable generic path is
// complete on its own.

// oddShapes stresses tile edges (m,n,k ∤ MR/NR) and block boundaries
// (k > gemmKC, n > gemmNC).
var oddShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 8, 8},
	{9, 13, 10},
	{13, 17, 11},
	{5, 300, 3},    // k crosses gemmKC with a tail
	{7, 512, 9},    // k exactly two blocks
	{66, 30, 70},   // m and n edges on 8- and 4-wide tiles
	{70, 260, 270}, // k and n cross blocks together
	// Every tile ragged in m on both tile heights, the chain carried
	// through the scratch tile across a kc boundary with a tail.
	{1, 300, 21}, {2, 300, 21}, {3, 300, 21}, {4, 300, 21}, {5, 300, 21},
	{6, 300, 21}, {7, 300, 21}, {8, 300, 21}, {9, 300, 21},
	{2, 2048, 1024}, // the paper model's last convolution at batch 1
	{4, 1024, 1024}, // and the one before it
}

// refGEMM is an independent scalar reference with the oracle summation
// order: one accumulator per element, ascending k.
func refGEMM[T Float](a, b *Dense[T], transB bool) *Dense[T] {
	m, k := a.Dim(0), a.Dim(1)
	var n int
	if transB {
		n = b.Dim(0)
	} else {
		n = b.Dim(1)
	}
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc T
			for p := 0; p < k; p++ {
				if transB {
					acc += a.At2(i, p) * b.At2(j, p)
				} else {
					acc += a.At2(i, p) * b.At2(p, j)
				}
			}
			out.Set2(acc, i, j)
		}
	}
	return out
}

// withGenericKernels runs f with the portable micro-kernels installed,
// restoring the active (possibly asm) kernels afterwards.
func withGenericKernels(f func()) {
	old32, old64, oldName := gemmKern32, gemmKern64, gemmKernelName
	gemmKern32, gemmKern64, gemmKernelName = gemmKernelGeneric32, gemmKernelGeneric64, "generic"
	defer func() { gemmKern32, gemmKern64, gemmKernelName = old32, old64, oldName }()
	f()
}

// packedInto runs the packed engine whatever the product's size, packing
// b per call or, with prepacked, sweeping blocks packed beforehand.
func packedInto[T Float](a, b *Dense[T], transB, prepacked bool) *Dense[T] {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if transB {
		n = b.Dim(0)
	}
	out := NewOf[T](m, n)
	var blocks []T
	if prepacked {
		blocks = packBBlocks(b.Data(), n, k, transB)
	}
	gemmPackedInto(out.Data(), a.Data(), b.Data(), blocks, m, n, k, transB)
	return out
}

// checkPackedForms holds both forms, under the active and the portable
// kernels, to the scalar reference.
func checkPackedForms(t *testing.T, a64, b64 *Dense[float64], transB bool) {
	t.Helper()
	a32, b32 := Convert[float32](a64), Convert[float32](b64)
	want64 := refGEMM(a64, b64, transB)
	want32 := refGEMM(a32, b32, transB)
	for form, prepacked := range map[string]bool{"pack-now": false, "pre-packed": true} {
		check := func() {
			ctx := gemmKernelName + "/" + form
			checkF64Bitwise(t, ctx+"/f64", packedInto(a64, b64, transB, prepacked), want64)
			checkF32Close(t, ctx+"/f32", packedInto(a32, b32, transB, prepacked), want32)
		}
		check() // active kernels (asm when the CPU has it)
		withGenericKernels(check)
	}
}

func checkF64Bitwise(t *testing.T, ctx string, got, want *Dense[float64]) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: element %d = %x, oracle %x (not bit-identical)", ctx, i, gd[i], wd[i])
		}
	}
}

func checkF32Close(t *testing.T, ctx string, got, want *Dense[float32]) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		diff := math.Abs(float64(gd[i]) - float64(wd[i]))
		scale := math.Max(1, math.Abs(float64(wd[i])))
		if diff/scale > 1e-4 {
			t.Fatalf("%s: element %d = %g, reference %g (rel err %g)", ctx, i, gd[i], wd[i], diff/scale)
		}
	}
}

func TestPackedGEMMEquivalence(t *testing.T) {
	for _, s := range oddShapes {
		for _, transB := range []bool{false, true} {
			name := fmt.Sprintf("%dx%dx%d/transB=%v", s.m, s.k, s.n, transB)
			t.Run(name, func(t *testing.T) {
				rng := NewRNG(uint64(s.m*1000 + s.k*10 + s.n))
				a64 := RandNormal(rng, 0, 1, s.m, s.k)
				bs := []int{s.k, s.n}
				if transB {
					bs = []int{s.n, s.k}
				}
				checkPackedForms(t, a64, RandNormal(rng, 0, 1, bs...), transB)
			})
		}
	}
}

// TestPackedDispatchThreshold pins the public entry points: a product
// over the packing threshold must produce the oracle result through
// MatMulInto/MatMulTransBInto exactly as the sub-threshold scalar loops
// do.
func TestPackedDispatchThreshold(t *testing.T) {
	rng := NewRNG(7)
	a := RandNormal(rng, 0, 1, 65, 66)
	b := RandNormal(rng, 0, 1, 66, 67)
	if !usePacked(65, 66, 67) {
		t.Fatalf("usePacked(65,66,67) = false, want the packed engine for this size")
	}
	checkF64Bitwise(t, "MatMulInto", MatMul(a, b), refGEMM(a, b, false))
	bt := RandNormal(rng, 0, 1, 67, 66)
	checkF64Bitwise(t, "MatMulTransBInto", MatMulTransB(a, bt), refGEMM(a, bt, true))
}

// TestPackTransB pins the prepared operand: always the packed blocks,
// plus the caller's rows only when the matrix is too small to be packed
// at every batch size; MatMulPackedInto reproduces the oracle from
// either — below one tile of rows, where MatMulTransBInto no longer
// packs, too.
func TestPackTransB(t *testing.T) {
	rng := NewRNG(11)
	for _, s := range []struct {
		n, k     int
		keepRows bool
	}{{67, 66, true}, {300, 900, false}} {
		w := RandNormal(rng, 0, 1, s.n, s.k)
		pb := PackTransB(w)
		if pb.blocks == nil || (pb.rows != nil) != s.keepRows {
			t.Fatalf("PackTransB(%dx%d): blocks %v rows %v, want blocks and rows=%v", s.n, s.k, pb.blocks != nil, pb.rows != nil, s.keepRows)
		}
		if pb.Rows() != s.n || pb.Cols() != s.k {
			t.Fatalf("PackTransB(%dx%d) reports %dx%d", s.n, s.k, pb.Rows(), pb.Cols())
		}
		for _, m := range []int{1, 3, 9, 65} { // 65·67·66 reaches packedMinWork: small rows, packed product
			a := RandNormal(rng, 0, 1, m, s.k)
			want := refGEMM(a, w, true)
			got := New(m, s.n)
			MatMulPackedInto(got, a, pb)
			checkF64Bitwise(t, fmt.Sprintf("MatMulPackedInto m=%d n=%d", m, s.n), got, want)
			checkF64Bitwise(t, fmt.Sprintf("MatMulTransB m=%d n=%d", m, s.n), MatMulTransB(a, w), want)
		}
	}
}

// TestMatMulPackedIntoAllocs: a product against pre-packed weights on one
// worker allocates nothing, ragged tiles and several row panels included.
func TestMatMulPackedIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("arena pools are lossy under -race")
	}
	defer SetWorkers(SetWorkers(1))
	rng := NewRNG(12)
	pb := PackTransB(Convert[float32](RandNormal(rng, 0, 1, 515, 520)))
	for _, m := range []int{2, 21} {
		a := Convert[float32](RandNormal(rng, 0, 1, m, 520))
		dst := NewOf[float32](m, 515)
		if n := testing.AllocsPerRun(20, func() { MatMulPackedInto(dst, a, pb) }); n != 0 {
			t.Errorf("MatMulPackedInto m=%d: %v allocs per call, want 0", m, n)
		}
	}
}

// TestGemmKernelName sanity-checks the dispatch report so CI logs can
// trust it; run with -v to see which kernel a runner dispatched.
func TestGemmKernelName(t *testing.T) {
	switch GemmKernelName() {
	case "avx2", "neon", "generic":
		t.Logf("gemm kernel dispatch: %s", GemmKernelName())
	default:
		t.Fatalf("GemmKernelName() = %q, want avx2|neon|generic", GemmKernelName())
	}
}

// FuzzPackedGEMM drives random shapes (including degenerate and
// tile-misaligned ones) through both kernel families against the scalar
// reference.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(uint8(9), uint8(13), uint8(10), false, uint64(1))
	f.Add(uint8(8), uint8(8), uint8(8), true, uint64(2))
	f.Add(uint8(1), uint8(255), uint8(3), false, uint64(3))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, transB bool, seed uint64) {
		// k reaches 766: up to three kc blocks, so the chain is fuzzed
		// across block boundaries too.
		m, k, n := int(m8)%48+1, 3*int(k8)+1, int(n8)%48+1
		rng := NewRNG(seed)
		a := RandNormal(rng, 0, 1, m, k)
		bs := []int{k, n}
		if transB {
			bs = []int{n, k}
		}
		checkPackedForms(t, a, RandNormal(rng, 0, 1, bs...), transB)
	})
}
