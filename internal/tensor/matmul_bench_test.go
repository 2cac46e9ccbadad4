package tensor

import (
	"fmt"
	"testing"
)

// GEMM benchmarks isolating the compute core the conv/dense layers route
// through. Run with: go test -bench BenchmarkMatMul -benchmem ./internal/tensor
func benchMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, m, k)
	c := RandNormal(rng, 0, 1, k, n)
	dst := New(m, n)
	b.SetBytes(int64(8 * m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{8, 8, 8},
		{32, 32, 32},
		{128, 128, 128},
		{256, 64, 512},
		{512, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			benchMatMul(b, s.m, s.k, s.n)
		})
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := NewRNG(2)
	a := RandNormal(rng, 0, 1, 128, 256)
	w := RandNormal(rng, 0, 1, 128, 256)
	dst := New(128, 128)
	b.SetBytes(int64(8 * 128 * 256 * 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, w)
	}
}

// Float32 GEMM variants: the same shapes through the float32
// instantiation. The ratio against the float64 benchmarks is the numeric
// core's bandwidth win at reduced precision.

func benchMatMulF32(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	a := Convert[float32](RandNormal(rng, 0, 1, m, k))
	c := Convert[float32](RandNormal(rng, 0, 1, k, n))
	dst := NewOf[float32](m, n)
	b.SetBytes(int64(4 * m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

func BenchmarkMatMulF32(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{8, 8, 8},
		{32, 32, 32},
		{128, 128, 128},
		{256, 64, 512},
		{512, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			benchMatMulF32(b, s.m, s.k, s.n)
		})
	}
}

func BenchmarkMatMulTransBF32(b *testing.B) {
	rng := NewRNG(2)
	a := Convert[float32](RandNormal(rng, 0, 1, 128, 256))
	w := Convert[float32](RandNormal(rng, 0, 1, 128, 256))
	dst := NewOf[float32](128, 128)
	b.SetBytes(int64(4 * 128 * 256 * 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, w)
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := NewRNG(3)
	a := RandNormal(rng, 0, 1, 256, 128)
	c := RandNormal(rng, 0, 1, 256, 128)
	dst := New(128, 128)
	b.SetBytes(int64(8 * 256 * 128 * 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, a, c)
	}
}

// The paper model's last two convolutions at batch 1 (m rows against
// 1 M and 2 M weights), through the per-call entry and against weights
// prepared once — the shapes edge scoring at T=512 spends its time in.
func benchPaperTail[T Float](b *testing.B) {
	for _, s := range []struct{ m, k, n int }{{4, 1024, 1024}, {2, 2048, 1024}} {
		rng := NewRNG(4)
		a := Convert[T](RandNormal(rng, 0, 1, s.m, s.k))
		w := Convert[T](RandNormal(rng, 0, 1, s.n, s.k))
		dst := NewOf[T](s.m, s.n)
		b.Run(fmt.Sprintf("%dx%dx%d/transB", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, a, w)
			}
		})
		pb := PackTransB(w)
		b.Run(fmt.Sprintf("%dx%dx%d/packed", s.m, s.k, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulPackedInto(dst, a, pb)
			}
		})
	}
}

func BenchmarkMatMulPaperTail(b *testing.B)    { benchPaperTail[float64](b) }
func BenchmarkMatMulPaperTailF32(b *testing.B) { benchPaperTail[float32](b) }
