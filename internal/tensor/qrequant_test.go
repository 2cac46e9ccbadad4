package tensor

import "testing"

// The int8 elementwise kernels are bit-identical across dispatch
// families on their documented domain, so these tests check equality
// between the installed kernel and the portable one (trivially true on
// generic-only hosts, the real cross-check wherever asm installed), plus
// the exact rounding/clipping semantics of the scalar contract.

func TestQuantClampSemantics(t *testing.T) {
	cases := []struct {
		v    float32
		q    int8
		clip bool
	}{
		{0, 0, false},
		{0.5, 0, false}, // nearest-even: ties to 0
		{1.5, 2, false}, // ties to 2
		{2.5, 2, false}, // ties to 2
		{-0.5, 0, false},
		{-1.5, -2, false},
		{126.4, 126, false},
		{127.49, 127, false},
		{127.5, 127, true},
		{1e6, 127, true},
		{-128.49, -128, false},
		{-128.5, -128, true},
		{-1e6, -128, true},
	}
	for _, c := range cases {
		q, clip := QuantClamp(c.v)
		if q != c.q || clip != c.clip {
			t.Errorf("QuantClamp(%g) = (%d, %v), want (%d, %v)", c.v, q, clip, c.q, c.clip)
		}
	}
}

// TestRequantSemantics: Requant is QuantClamp, floored at the next zero
// point under a fused ReLU, and counts a clip as lossy only where the float
// lane does not saturate too — the high side always, the low side only
// without ReLU.
func TestRequantSemantics(t *testing.T) {
	for _, zn := range []int8{-128, -7, 0, 5} {
		for _, relu := range []bool{false, true} {
			floor := RequantFloor(zn, relu)
			for _, v := range []float32{-1e6, -128.5, -128.49, -60.5, -7.5, -7, -6.5, 0, 0.5, 4.5, 126.4, 127.49, 127.5, 1e6} {
				q, clip := QuantClamp(v)
				want, wantLossy := q, clip && (!relu || q == 127)
				if relu && q < zn {
					want = zn
				}
				if got, lossy := Requant(v, floor, relu); got != want || lossy != wantLossy {
					t.Errorf("Requant(%g, zn %d, relu %v) = (%d, %v), want (%d, %v)", v, zn, relu, got, lossy, want, wantLossy)
				}
			}
		}
	}
}

func TestQuantizeAffineMatchesGeneric(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range []int{0, 1, 7, 15, 16, 17, 31, 32, 100, 1023} {
		src := make([]float32, n)
		for i := range src {
			// Spread across the in-range, near-edge and clipped regimes.
			src[i] = float32(rng.NormFloat64() * 60)
		}
		if n > 4 {
			src[0], src[1], src[2], src[3] = 127.5, -128.5, 127.49, -128.49
		}
		got := make([]int8, n)
		want := make([]int8, n)
		gc := QuantizeAffine(got, src, 1.25, -3)
		wc := quantAffineGeneric(want, src, 1.25, -3)
		if gc != wc {
			t.Fatalf("n=%d: clip count %d vs generic %d", n, gc, wc)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %d vs generic %d (src %g)", n, i, got[i], want[i], src[i])
			}
		}
	}
}

func TestRequantPairs2MatchesGeneric(t *testing.T) {
	rng := NewRNG(12)
	for _, n := range []int{8, 16, 32, 48} { // 8 exercises the off-grid fallback
		for _, relu := range []bool{false, true} {
			pairs := 9
			ld := n + 1
			acc := make([]int32, 2*pairs*ld)
			for i := range acc {
				acc[i] = int32(rng.Uint64()%200000) - 100000
			}
			zw := make([]int32, n)
			cw := make([]int32, n)
			mm := make([]float32, n)
			cc := make([]float32, n)
			for j := 0; j < n; j++ {
				zw[j] = int32(rng.Uint64()%11) - 5
				cw[j] = int32(rng.Uint64()%2000) - 1000
				mm[j] = float32(rng.NormFloat64() * 0.01)
				cc[j] = float32(rng.NormFloat64() * 20)
			}
			got := make([]int8, pairs*2*n)
			want := make([]int8, pairs*2*n)
			gc := RequantPairs2(got, acc, ld, pairs, n, zw, cw, mm, cc, -7, relu)
			wc := requantPairsGeneric(want, acc, ld, pairs, n, zw, cw, mm, cc, -7, relu)
			if gc != wc {
				t.Fatalf("n=%d relu=%v: clip count %d vs generic %d", n, relu, gc, wc)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d relu=%v: dst[%d] = %d vs generic %d", n, relu, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQGemmPackAMatchesGeneric(t *testing.T) {
	rng := NewRNG(13)
	for _, k := range []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 34, 64} {
		x := make([]int8, 4*k)
		for i := range x {
			x[i] = int8(rng.Uint64())
		}
		kp := qgemmKP(k)
		got := make([]int16, kp*qgemmMR*qgemmKU)
		want := make([]int16, kp*qgemmMR*qgemmKU)
		qgemmPackA(got, x, k)
		qgemmPackAGeneric(want, x, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: aP[%d] = %d vs generic %d", k, i, got[i], want[i])
			}
		}
	}
}
