package tensor

import (
	"math"
	"reflect"
	"testing"
)

// refBiasReLU is the scalar loop BiasReLU is held to: one rounded add,
// then anything not above zero — NaN and −0 included — becomes +0.
func refBiasReLU[T Float](x, b []T) []T {
	out := make([]T, len(x))
	for i := range x {
		if v := x[i] + b[i]; v > 0 {
			out[i] = v
		}
	}
	return out
}

// biasReLUSpecials are the inputs where a SIMD max and a scalar compare
// can part ways: NaN, both zeros, both infinities, subnormals, and sums
// that cancel to ±0.
func biasReLUSpecials[T Float]() []T {
	tiny := T(math.SmallestNonzeroFloat64)
	var z T
	if SizeOf(z) == 4 {
		tiny = T(math.SmallestNonzeroFloat32)
	}
	return []T{
		T(math.NaN()), 0, T(math.Copysign(0, -1)), T(math.Inf(1)), T(math.Inf(-1)),
		tiny, -tiny, 3 * tiny, 1, -1, 0.5, -0.5, 1e30, -1e30,
	}
}

// checkBiasReLU runs BiasReLU over every length in lens, with x and b
// drawn from the specials and random normals, against refBiasReLU.
func checkBiasReLU[T Float](t *testing.T, ctx string, lens []int) {
	t.Helper()
	sp := biasReLUSpecials[T]()
	rng := NewRNG(17)
	pick := func() T {
		if rng.Intn(2) == 0 {
			return sp[rng.Intn(len(sp))]
		}
		return T(rng.NormFloat64())
	}
	for _, n := range lens {
		for trial := 0; trial < 20; trial++ {
			x, b := make([]T, n), make([]T, n+trial%3) // b may run past x
			for i := range x {
				x[i] = pick()
			}
			for i := range b {
				b[i] = pick()
			}
			want := refBiasReLU(x, b)
			BiasReLU(x, b)
			for i := range want {
				if math.Float64bits(float64(x[i])) != math.Float64bits(float64(want[i])) || math.Signbit(float64(x[i])) {
					t.Fatalf("%s: len %d element %d = %v, scalar loop %v", ctx, n, i, x[i], want[i])
				}
			}
		}
	}
	// Every special against every special, so each pairing meets each lane.
	var x, b []T
	for _, u := range sp {
		for _, v := range sp {
			x, b = append(x, u), append(b, v)
		}
	}
	want, in := refBiasReLU(x, b), append([]T(nil), x...)
	BiasReLU(x, b)
	for i := range want {
		if math.Float64bits(float64(x[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: %v + %v = %v, scalar loop %v", ctx, in[i], b[i], x[i], want[i])
		}
	}
}

// withGenericBiasReLU runs f with the portable BiasReLU bodies installed.
func withGenericBiasReLU(f func()) {
	old32, old64 := biasReLUKern32, biasReLUKern64
	biasReLUKern32, biasReLUKern64 = biasReLUGeneric[float32], biasReLUGeneric[float64]
	defer func() { biasReLUKern32, biasReLUKern64 = old32, old64 }()
	f()
}

// TestBiasReLUMatchesScalarLoop holds every BiasReLU body to the scalar
// loop bit for bit: lengths 0…17 (every SIMD tail at both widths) and
// past one unrolled pass, under the active and the portable bodies.
func TestBiasReLUMatchesScalarLoop(t *testing.T) {
	lens := []int{31, 32, 33, 47, 70}
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	check := func(name string) {
		checkBiasReLU[float32](t, name+"/f32", lens)
		checkBiasReLU[float64](t, name+"/f64", lens)
	}
	check("active")
	withGenericBiasReLU(func() { check("generic") })
}

// TestBiasReLUPanicsOnShortBias: a bias shorter than the row is a
// programmer error, not a silent partial pass.
func TestBiasReLUPanicsOnShortBias(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BiasReLU with a short bias did not panic")
		}
	}()
	BiasReLU(make([]float32, 9), make([]float32, 8))
}

// TestBiasReLUDispatch reports which BiasReLU bodies are installed, so CI
// can assert the portable ones under `-tags noasm` and VARADE_NOASM. They
// come from the GEMM kernels' family wherever that family has them: AVX2
// asm under "avx2", the portable loop otherwise (NEON has none).
func TestBiasReLUDispatch(t *testing.T) {
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	generic := same(biasReLUKern32, biasReLUGeneric[float32]) && same(biasReLUKern64, biasReLUGeneric[float64])
	if generic != (GemmKernelName() != "avx2") {
		t.Fatalf("gemm dispatch %q with generic BiasReLU = %v", GemmKernelName(), generic)
	}
	name := "avx2"
	if generic {
		name = "generic"
	}
	t.Logf("bias-relu dispatch: %s", name)
}
