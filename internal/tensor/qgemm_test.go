package tensor

import (
	"fmt"
	"testing"
)

// The int8 qGEMM contract is stricter than the float engine's: int32
// accumulation is exact, so every kernel family must agree with the
// scalar reference bit-for-bit — equality, not tolerance. The shapes
// below stress panel edges (rows ∤ 16), pair padding (odd k) and the
// multi-panel/multi-block sweeps, with values pushed to ±127 so any
// intermediate saturation (e.g. a VPMADDUBSW-style int16 overflow)
// would be caught immediately.

var qgemmShapes = []struct{ m, k, rows int }{
	{1, 1, 1},
	{1, 3, 16},
	{3, 5, 7},
	{4, 8, 16},
	{5, 9, 17},  // odd k pad + one channel into the second panel
	{7, 64, 33}, // panel boundary crossing on rows
	{13, 127, 40},
	{64, 96, 48}, // above the parallel threshold
}

// refQGemm is the scalar reference: out[i,r] = Σ_c x[i,c]·w[r,c], exact
// int32.
func refQGemm(x, w []int8, m, k, rows int) []int32 {
	out := make([]int32, m*rows)
	for i := 0; i < m; i++ {
		for r := 0; r < rows; r++ {
			var acc int32
			for c := 0; c < k; c++ {
				acc += int32(x[i*k+c]) * int32(w[r*k+c])
			}
			out[i*rows+r] = acc
		}
	}
	return out
}

// withGenericQGemm runs f with the portable int8 kernel installed.
func withGenericQGemm(f func()) {
	old, oldName := qgemmKern, qgemmKernelName
	qgemmKern, qgemmKernelName = qgemmKernelGeneric, "generic"
	defer func() { qgemmKern, qgemmKernelName = old, oldName }()
	f()
}

func randInt8s(rng *RNG, n int, extreme bool) []int8 {
	out := make([]int8, n)
	for i := range out {
		if extreme {
			// Saturation stress: mostly ±127 with a few moderates.
			switch rng.Intn(4) {
			case 0:
				out[i] = 127
			case 1:
				out[i] = -127
			case 2:
				out[i] = -128
			default:
				out[i] = int8(rng.Intn(255) - 127)
			}
		} else {
			out[i] = int8(rng.Intn(255) - 127)
		}
	}
	return out
}

func qgemmInto(x, w []int8, m, k, rows int) []int32 {
	bP := make([]int8, QGemmPackedLen(rows, k))
	QGemmPackB(bP, w, rows, k)
	out := make([]int32, m*rows)
	QGemmTransB(out, x, bP, m, k, rows)
	return out
}

func checkI32Equal(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, reference %d (int32 path must be exact)", ctx, i, got[i], want[i])
		}
	}
}

func TestQGemmEquivalence(t *testing.T) {
	for _, s := range qgemmShapes {
		for _, extreme := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%dx%d/extreme=%v", s.m, s.k, s.rows, extreme), func(t *testing.T) {
				rng := NewRNG(uint64(s.m*1000 + s.k*10 + s.rows))
				x := randInt8s(rng, s.m*s.k, extreme)
				w := randInt8s(rng, s.rows*s.k, extreme)
				want := refQGemm(x, w, s.m, s.k, s.rows)
				checkI32Equal(t, qgemmKernelName, qgemmInto(x, w, s.m, s.k, s.rows), want)
				withGenericQGemm(func() {
					checkI32Equal(t, "generic", qgemmInto(x, w, s.m, s.k, s.rows), want)
				})
			})
		}
	}
}

// TestQGemmAccumulatorHeadroom drives the worst-case dot — every operand
// at -128, the magnitude extreme — at the maximum admissible k, where
// the exact result k·2^14 = 2^30 is within one bit of int32 overflow.
// Any kernel that widened late, saturated an intermediate, or
// accumulated in 16 bits would diverge here; and beyond the guard the
// engine must refuse rather than silently wrap.
func TestQGemmAccumulatorHeadroom(t *testing.T) {
	k := qgemmMaxK
	x := make([]int8, k)
	w := make([]int8, k)
	for i := range x {
		x[i] = -128
		w[i] = -128
	}
	want := int32(k) * 128 * 128
	got := qgemmInto(x, w, 1, k, 1)
	if got[0] != want {
		t.Fatalf("worst-case dot at k=%d: got %d, want %d", k, got[0], want)
	}
	withGenericQGemm(func() {
		if g := qgemmInto(x, w, 1, k, 1); g[0] != want {
			t.Fatalf("generic worst-case dot: got %d, want %d", g[0], want)
		}
	})

	defer func() {
		if recover() == nil {
			t.Fatalf("QGemmTransB accepted k=%d beyond the overflow guard", qgemmMaxK+1)
		}
	}()
	qgemmInto(make([]int8, qgemmMaxK+1), make([]int8, qgemmMaxK+1), 1, qgemmMaxK+1, 1)
}

// TestQGemmTransBAllocatesNothing: an unsharded product — one worker, or
// too little work to split — takes its packing scratch from a pool and
// allocates nothing once warm, as a stream's one-row int8 layers need.
func TestQGemmTransBAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	rng := NewRNG(4)
	for _, shape := range [][3]int{{1, 34, 17}, {3, 33, 16}, {256, 32, 17}} {
		m, k, rows := shape[0], shape[1], shape[2]
		x, w := randInt8s(rng, m*k, false), randInt8s(rng, rows*k, false)
		bP := make([]int8, QGemmPackedLen(rows, k))
		QGemmPackB(bP, w, rows, k)
		out := make([]int32, m*rows)
		prev := SetWorkers(1)
		n := testing.AllocsPerRun(50, func() { QGemmTransB(out, x, bP, m, k, rows) })
		SetWorkers(prev)
		if n != 0 {
			t.Errorf("%dx%dx%d: %v allocs per QGemmTransB, want 0", m, k, rows, n)
		}
		checkI32Equal(t, "pooled", out, refQGemm(x, w, m, k, rows))
	}
}

// TestQGemmKernelName sanity-checks the int8 dispatch report; CI greps
// the -v output to assert the portable legs really run "generic".
func TestQGemmKernelName(t *testing.T) {
	switch QGemmKernelName() {
	case "avx2", "neon", "generic":
		t.Logf("qgemm kernel dispatch: %s", QGemmKernelName())
	default:
		t.Fatalf("QGemmKernelName() = %q, want avx2|neon|generic", QGemmKernelName())
	}
}

// FuzzQGemm drives random shapes — panel-misaligned rows, odd k, and
// byte values spanning the full int8 range including -128 — through the
// active and generic kernels against the scalar reference.
func FuzzQGemm(f *testing.F) {
	f.Add(uint8(5), uint8(9), uint8(17), uint64(1))
	f.Add(uint8(1), uint8(255), uint8(16), uint64(2))
	f.Add(uint8(13), uint8(127), uint8(40), uint64(3))
	f.Fuzz(func(t *testing.T, m8, k8, r8 uint8, seed uint64) {
		m, k, rows := int(m8)%32+1, int(k8)+1, int(r8)%48+1
		rng := NewRNG(seed)
		x := make([]int8, m*k)
		w := make([]int8, rows*k)
		for i := range x {
			x[i] = int8(rng.Uint64())
		}
		for i := range w {
			w[i] = int8(rng.Uint64())
		}
		want := refQGemm(x, w, m, k, rows)
		checkI32Equal(t, "active", qgemmInto(x, w, m, k, rows), want)
		withGenericQGemm(func() {
			checkI32Equal(t, "generic", qgemmInto(x, w, m, k, rows), want)
		})
	})
}
