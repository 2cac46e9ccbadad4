package tensor

import (
	"fmt"
	"math"
	"reflect"
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
	old32, old64, oldV32, oldV64, oldName := gemmKern32, gemmKern64, gemvKern32, gemvKern64, gemmKernelName
	oldR4, oldR2, oldR2d := gemvRows4Kern32, gemvRows2Kern32, gemvRows2Kern64
	gemmKern32, gemmKern64, gemmKernelName = gemmKernelGeneric32, gemmKernelGeneric64, "generic"
	gemvKern32, gemvKern64 = gemvKernelGeneric32, gemvKernelGeneric64
	gemvRows4Kern32, gemvRows2Kern32, gemvRows2Kern64 = gemvRows4Generic32, gemvRows2Generic32, gemvRows2Generic64
	defer func() {
		gemmKern32, gemmKern64, gemvKern32, gemvKern64, gemmKernelName = old32, old64, oldV32, oldV64, oldName
		gemvRows4Kern32, gemvRows2Kern32, gemvRows2Kern64 = oldR4, oldR2, oldR2d
	}()
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

// TestOneRowMatchesTilePath holds the one-row kernels and their four- and
// two-row forms to the tile path bit for bit at both widths: every row of
// a short row panel — one to MR−1 rows, in groups of four, two and one —
// must come out exactly as its row of the tile kernel computes it over a
// zero-padded panel, under the active kernels and the portable ones. Shapes: the paper model's nine layer
// products, ragged last panels, and kc/nc block crossings; m = 1…9 covers
// every short panel at both tile heights, alone and after a full one.
func TestOneRowMatchesTilePath(t *testing.T) {
	shapes := append(paperLayers[:len(paperLayers):len(paperLayers)],
		struct{ n, k int }{13, 300},   // a ragged last panel at both widths, k with a tail
		struct{ n, k int }{1023, 300}, // n crosses gemmNC, the last block ragged
		struct{ n, k int }{40, 2049},  // k crosses gemmKC with a one-step tail
	)
	for _, s := range shapes {
		for m := 1; m <= 9; m++ {
			rng := NewRNG(uint64(s.n*7 + s.k + m))
			a := RandNormal(rng, 0, 1, m, s.k)
			w := RandNormal(rng, 0, 1, s.n, s.k)
			check := func() {
				ctx := fmt.Sprintf("%s/m=%d/%dx%d", gemmKernelName, m, s.n, s.k)
				checkOneRow(t, ctx+"/f64", a, w)
				checkOneRow(t, ctx+"/f32", Convert[float32](a), Convert[float32](w))
			}
			check()
			withGenericKernels(check)
		}
	}
}

// checkOneRow multiplies a by the (n, k) matrix w through the packed sweep
// twice — short row panels on the one-row kernel, then with tileOnly set
// on the tile kernel — and requires identical bits.
func checkOneRow[T Float](t *testing.T, ctx string, a, w *Dense[T]) {
	t.Helper()
	m, k, n := a.Dim(0), a.Dim(1), w.Dim(0)
	blocks := packBBlocks(w.Data(), n, k, true)
	got, want := make([]T, m*n), make([]T, m*n)
	gemmPackedInto(got, a.Data(), nil, blocks, m, n, k, true)
	tileOnly = true
	defer func() { tileOnly = false }()
	gemmPackedInto(want, a.Data(), nil, blocks, m, n, k, true)
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: element %d = %v, tile kernel %v (not bit-identical)", ctx, i, got[i], want[i])
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

// TestPackTransB pins the prepared operand: the packed blocks and nothing
// else, whatever the matrix's size, and MatMulPackedInto reproduces the
// oracle from them at every row count — below one tile of rows and below
// the per-call packing threshold too, where MatMulTransBInto takes the
// no-copy kernels instead.
func TestPackTransB(t *testing.T) {
	rng := NewRNG(11)
	for _, s := range []struct{ n, k int }{{67, 66}, {300, 900}, {5, 3}} {
		w := RandNormal(rng, 0, 1, s.n, s.k)
		pb := PackTransB(w)
		if pb.blocks == nil {
			t.Fatalf("PackTransB(%dx%d): no packed blocks", s.n, s.k)
		}
		if pb.Rows() != s.n || pb.Cols() != s.k {
			t.Fatalf("PackTransB(%dx%d) reports %dx%d", s.n, s.k, pb.Rows(), pb.Cols())
		}
		orig := w.Clone()
		// The operand does not read w once packed.
		w.Fill(math.NaN())
		for _, m := range []int{1, 3, 9, 65} { // 65·67·66 reaches packedMinWork
			a := RandNormal(rng, 0, 1, m, s.k)
			want := refGEMM(a, orig, true)
			got := New(m, s.n)
			MatMulPackedInto(got, a, pb)
			checkF64Bitwise(t, fmt.Sprintf("MatMulPackedInto m=%d %dx%d", m, s.n, s.k), got, want)
			checkF64Bitwise(t, fmt.Sprintf("MatMulTransB m=%d %dx%d", m, s.n, s.k), MatMulTransB(a, orig), want)
		}
	}
}

// TestMatMulPackedIntoAllocs: a product against pre-packed weights on one
// worker allocates nothing, ragged tiles, one-row panels and several row
// panels included.
func TestMatMulPackedIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("arena pools are lossy under -race")
	}
	defer SetWorkers(SetWorkers(1))
	rng := NewRNG(12)
	w := RandNormal(rng, 0, 1, 515, 520)
	checkPackedAllocs(t, "f32", PackTransB(Convert[float32](w)), rng, 1, 2, 21)
	checkPackedAllocs(t, "f64", PackTransB(w), rng, 1)
}

func checkPackedAllocs[T Float](t *testing.T, ctx string, pb *PackedB[T], rng *RNG, ms ...int) {
	t.Helper()
	for _, m := range ms {
		a := Convert[T](RandNormal(rng, 0, 1, m, pb.Cols()))
		dst := NewOf[T](m, pb.Rows())
		if n := testing.AllocsPerRun(20, func() { MatMulPackedInto(dst, a, pb) }); n != 0 {
			t.Errorf("MatMulPackedInto %s m=%d: %v allocs per call, want 0", ctx, m, n)
		}
	}
}

// TestGemmKernelName sanity-checks the dispatch report so CI logs can
// trust it; run with -v to see which kernel a runner dispatched. The
// one-row kernels must come from the tile kernels' family wherever that
// family has them: the portable ones under "generic", the asm ones under
// "avx2" (NEON has no one-row kernel; arm64 runs the portable one).
func TestGemmKernelName(t *testing.T) {
	switch GemmKernelName() {
	case "avx2", "neon", "generic":
		t.Logf("gemm kernel dispatch: %s", GemmKernelName())
	default:
		t.Fatalf("GemmKernelName() = %q, want avx2|neon|generic", GemmKernelName())
	}
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	tileGeneric := same(gemmKern32, gemmKernelGeneric32) && same(gemmKern64, gemmKernelGeneric64)
	gemvGeneric := same(gemvKern32, gemvKernelGeneric32) && same(gemvKern64, gemvKernelGeneric64)
	rowsGeneric := same(gemvRows4Kern32, gemvRows4Generic32) && same(gemvRows2Kern32, gemvRows2Generic32) &&
		same(gemvRows2Kern64, gemvRows2Generic64)
	if rowsGeneric != gemvGeneric {
		t.Fatalf("one-row kernels generic=%v, multi-row kernels generic=%v; want one family", gemvGeneric, rowsGeneric)
	}
	switch name := GemmKernelName(); {
	case name == "generic" && !(tileGeneric && gemvGeneric),
		name == "avx2" && (tileGeneric || gemvGeneric):
		t.Fatalf("dispatch %q: tile kernels generic=%v, one-row kernels generic=%v; want one family", name, tileGeneric, gemvGeneric)
	}
	t.Logf("one-row kernels generic: %v", gemvGeneric)
}

// FuzzPackedGEMM drives random shapes (including degenerate and
// tile-misaligned ones) through both kernel families against the scalar
// reference, and holds the pre-packed sweep's short row panels to the
// tile kernel bit for bit at both widths.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(uint8(9), uint8(13), uint8(10), false, uint64(1))
	f.Add(uint8(8), uint8(8), uint8(8), true, uint64(2))
	f.Add(uint8(1), uint8(255), uint8(3), false, uint64(3))
	f.Add(uint8(0), uint8(90), uint8(250), true, uint64(4))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, transB bool, seed uint64) {
		// k reaches 766: up to three kc blocks, so the chain is fuzzed
		// across block boundaries too. Up to nine rows — every short row
		// panel at both tile heights, alone and after a full one — lets n
		// reach 766: past gemmNC, and enough panels for the one-row
		// kernels' 8-panel passes at both widths.
		m, k, n := int(m8)%48+1, 3*int(k8)+1, int(n8)%48+1
		if m <= 9 {
			n = 3*int(n8) + 1
		}
		rng := NewRNG(seed)
		a := RandNormal(rng, 0, 1, m, k)
		bs := []int{k, n}
		if transB {
			bs = []int{n, k}
		}
		b := RandNormal(rng, 0, 1, bs...)
		checkPackedForms(t, a, b, transB)
		if transB {
			check := func() {
				checkOneRow(t, gemmKernelName+"/f64", a, b)
				checkOneRow(t, gemmKernelName+"/f32", Convert[float32](a), Convert[float32](b))
			}
			check()
			withGenericKernels(check)
		}
	})
}
