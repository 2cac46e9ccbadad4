package nn

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"varade/internal/tensor"
)

// testStack builds a small conv→relu→flatten→dense stack (the VARADE
// topology) with seeded weights.
func testStack(t *testing.T) []Layer {
	t.Helper()
	rng := tensor.NewRNG(7)
	return []Layer{
		NewConv1D(3, 8, 2, 2, 0, rng),
		NewReLU(),
		NewConv1D(8, 8, 2, 2, 0, rng),
		NewReLU(),
		NewFlatten(),
		NewDense(16, 6, rng),
	}
}

func forwardAll(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range layers {
		x = l.Forward(x)
	}
	return x
}

func TestCompileFloat64BitIdentical(t *testing.T) {
	layers := testStack(t)
	net, err := Compile[float64](layers...)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(tensor.NewRNG(9), 0, 1, 4, 3, 8)
	want := forwardAll(layers, x)
	got := net.Forward(x)
	if !tensor.SameShape(want, got) {
		t.Fatalf("shape %v want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("element %d: compiled %g, layer path %g", i, got.Data()[i], want.Data()[i])
		}
	}
}

// wideStack is the VARADE topology — stride-2 convolutions down to two
// output positions, flatten, dense — wide enough that its last convolution
// (512 × 512) and its head (300 × 1024) are compiled to the packed-only
// weight form, and short enough that at batch 1 every GEMM tile of theirs
// is ragged in m.
func wideStack() []Layer {
	rng := tensor.NewRNG(17)
	return []Layer{
		NewConv1D(4, 64, 2, 2, 0, rng),
		NewReLU(),
		NewConv1D(64, 256, 2, 2, 0, rng),
		NewReLU(),
		NewConv1D(256, 512, 2, 2, 0, rng),
		NewReLU(),
		NewFlatten(),
		NewDense(1024, 300, rng),
	}
}

// TestCompilePackedFloat64BitIdentical: weights packed once at compile
// time reproduce the layer stack (which packs per call, or below one tile
// of rows takes the no-copy kernels) bit for bit, at batch 1 and at a
// batch that leaves a ragged row panel.
func TestCompilePackedFloat64BitIdentical(t *testing.T) {
	layers := wideStack()
	net, err := Compile[float64](layers...)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 9} {
		x := tensor.RandNormal(tensor.NewRNG(uint64(batch)), 0, 1, batch, 4, 16)
		want, got := forwardAll(layers, x).Data(), net.Forward(x).Data()
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("batch %d element %d: compiled %x, layer path %x", batch, i, got[i], want[i])
			}
		}
	}
}

// TestCompiledNetConcurrentForward scores one compiled net from four
// goroutines at once (run under -race in CI): the packed weights are
// shared and read-only, so every result equals the sequential one.
func TestCompiledNetConcurrentForward(t *testing.T) {
	net, err := Compile[float32](wideStack()...)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor32, 4)
	want := make([][]float32, len(xs))
	for g := range xs {
		xs[g] = tensor.Convert[float32](tensor.RandNormal(tensor.NewRNG(uint64(40+g)), 0, 1, 1+g, 4, 16))
		want[g] = net.Forward(xs[g]).Data()
	}
	var wg sync.WaitGroup
	for g := range xs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				got := net.Forward(xs[g]).Data()
				for i := range want[g] {
					if got[i] != want[g][i] {
						t.Errorf("goroutine %d rep %d element %d: %g, sequential %g", g, rep, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCompileFloat32CloseToOracle(t *testing.T) {
	layers := testStack(t)
	net, err := Compile[float32](layers...)
	if err != nil {
		t.Fatal(err)
	}
	x64 := tensor.RandNormal(tensor.NewRNG(9), 0, 1, 4, 3, 8)
	want := forwardAll(layers, x64)
	got := net.Forward(tensor.Convert[float32](x64))
	worst := 0.0
	for i, w := range want.Data() {
		if d := math.Abs(w - float64(got.Data()[i])); d > worst {
			worst = d
		}
	}
	if worst == 0 {
		t.Fatal("float32 path suspiciously exact — is it running in float64?")
	}
	if worst > 1e-4 {
		t.Fatalf("float32 forward deviates %g from float64 oracle", worst)
	}
}

// compileCalibrated compiles layers to the int8 program and calibrates its
// activation scales on x through the float32 program of the same layers.
func compileCalibrated(t *testing.T, cache QuantCache, x *tensor.Tensor32, layers ...Layer) *InferenceNet[float32] {
	t.Helper()
	acts := NewActSet()
	qnet, err := CompileQuantized(cache, acts, layers...)
	if err != nil {
		t.Fatal(err)
	}
	fnet, err := Compile[float32](layers...)
	if err != nil {
		t.Fatal(err)
	}
	if err := acts.Calibrate(fnet, x); err != nil {
		t.Fatal(err)
	}
	if !acts.Calibrated() {
		t.Fatal("Calibrate left entries without a scale")
	}
	return qnet
}

func TestCompileQuantizedWithinNoiseFloor(t *testing.T) {
	layers := testStack(t)
	cache := make(QuantCache)
	x64 := tensor.RandNormal(tensor.NewRNG(9), 0, 1, 4, 3, 8)
	x := tensor.Convert[float32](x64)
	qnet := compileCalibrated(t, cache, x, layers...)
	if len(cache) != 3 { // two conv weights + one dense weight
		t.Fatalf("quantized %d weight tensors, want 3", len(cache))
	}
	want := forwardAll(layers, x64)
	got := qnet.Forward(x)
	worst := 0.0
	for i, w := range want.Data() {
		if d := math.Abs(w - float64(got.Data()[i])); d > worst {
			worst = d
		}
	}
	// int8 noise: ~0.4% of the per-channel weight and per-tensor
	// activation ranges per tap, summed over a handful of taps; loose
	// bound that still catches wiring bugs.
	if worst > 0.3 {
		t.Fatalf("quantized forward deviates %g from float64 oracle", worst)
	}
	// Quantized weights must be far smaller than the float64 originals.
	// NumBytes counts both resident int8 copies (stored values plus the
	// qGEMM panel pack), so the honest bound is ~2 bytes per parameter
	// against float64's 8 — a floor of ⅓ with panel/bias overhead.
	var f64Bytes int
	for _, l := range layers {
		for _, p := range l.Params() {
			f64Bytes += 8 * p.Value.Len()
		}
	}
	if qb := qnet.WeightBytes(); qb*2 > f64Bytes {
		t.Fatalf("quantized weights %dB not ≤ ½ of float64 %dB", qb, f64Bytes)
	}
}

// TestCompileQuantizedFallbackGeometries drives the int8 segment lanes
// the VARADE trunk never touches: overlapping and padded convolutions
// (the materialise+im2col fallback), conv successors off the 16-lane
// SIMD requant grid, dense→dense mid stages and a segment that ends in a
// conv. Wiring bugs in the fused layouts produce order-of-magnitude
// errors, so a loose bound against the float64 oracle is enough.
func TestCompileQuantizedFallbackGeometries(t *testing.T) {
	rng := tensor.NewRNG(17)
	type tc struct {
		layers []Layer
		x      *tensor.Tensor
	}
	cases := map[string]tc{
		// First conv overlapped+padded: stage 0 quantizes into a spare
		// tensor and runs the standalone int8 im2col.
		"overlap-first": {
			layers: []Layer{
				NewConv1D(3, 8, 3, 1, 1, rng), NewReLU(),
				NewConv1D(8, 8, 2, 2, 0, rng), NewReLU(),
				NewFlatten(), NewDense(32, 5, rng),
			},
			x: tensor.RandNormal(tensor.NewRNG(19), 0, 1, 4, 3, 8),
		},
		// Second conv overlapped+padded: the first stage's requant takes
		// the materialise-then-im2col default branch.
		"overlap-mid": {
			layers: []Layer{
				NewConv1D(3, 8, 2, 2, 0, rng), NewReLU(),
				NewConv1D(8, 8, 3, 1, 1, rng), NewReLU(),
				NewFlatten(), NewDense(32, 5, rng),
			},
			x: tensor.RandNormal(tensor.NewRNG(19), 0, 1, 4, 3, 8),
		},
		// Dense→dense: the mid-stage row requant (no conv anywhere).
		"dense-mid": {
			layers: []Layer{
				NewDense(24, 16, rng), NewReLU(), NewDense(16, 5, rng),
			},
			x: tensor.RandNormal(tensor.NewRNG(19), 0, 1, 4, 24),
		},
		// The segment ends in a conv: its head stage dequantizes
		// channel-major through the fused ReLU.
		"conv-head": {
			layers: []Layer{
				NewConv1D(3, 8, 2, 2, 0, rng), NewReLU(),
				NewConv1D(8, 6, 2, 2, 0, rng), NewReLU(),
			},
			x: tensor.RandNormal(tensor.NewRNG(19), 0, 1, 4, 3, 8),
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			x := tensor.Convert[float32](c.x)
			qnet := compileCalibrated(t, make(QuantCache), x, c.layers...)
			want := forwardAll(c.layers, c.x)
			got := qnet.Forward(x)
			if !tensor.SameShape(got, tensor.Convert[float32](want)) {
				t.Fatalf("shape %v want %v", got.Shape(), want.Shape())
			}
			worst := 0.0
			for i, w := range want.Data() {
				if d := math.Abs(w - float64(got.Data()[i])); d > worst {
					worst = d
				}
			}
			if worst > 0.5 {
				t.Fatalf("quantized forward deviates %g from float64 oracle", worst)
			}
		})
	}
}

func TestQuantRoundTripExact(t *testing.T) {
	w := tensor.RandNormal(tensor.NewRNG(3), 0, 0.5, 8, 6)
	q := QuantizeRows(w, 8, 6)
	halfStep := 0.0
	for _, s := range q.Scale {
		if h := float64(s) / 2; h > halfStep {
			halfStep = h
		}
	}
	if q.MaxAbsError(w) > halfStep*1.01 {
		t.Fatalf("quantization error %g above half-step %g", q.MaxAbsError(w), halfStep)
	}
	// requantizing the dequantized weights with the same geometry must
	// reproduce the identical int8 values.
	q2 := QuantizeRows(q.Dequantize(), 8, 6)
	for i := range q.Q {
		if q.Q[i] != q2.Q[i] {
			t.Fatalf("requantization drifted at %d: %d vs %d", i, q.Q[i], q2.Q[i])
		}
	}
}

func TestParamsF32AndQuantPayloadRoundTrip(t *testing.T) {
	layers := testStack(t)
	var params []*Param
	for _, l := range layers {
		params = append(params, l.Params()...)
	}

	// float32 payload: save, reload into a zeroed copy, values match to f32.
	var buf bytes.Buffer
	if err := SaveParamsF32(&buf, params); err != nil {
		t.Fatal(err)
	}
	fresh := testStack(t)
	var freshParams []*Param
	for _, l := range fresh {
		freshParams = append(freshParams, l.Params()...)
	}
	for _, p := range freshParams {
		p.Value.Zero()
	}
	if err := LoadParamsF32(bytes.NewReader(buf.Bytes()), freshParams); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		pd, fd := p.Value.Data(), freshParams[i].Value.Data()
		for j := range pd {
			if float64(float32(pd[j])) != fd[j] {
				t.Fatalf("param %s[%d]: %g vs %g", p.Name, j, pd[j], fd[j])
			}
		}
	}

	// quant payload: stored int8 values come back exactly.
	cache := make(QuantCache)
	for _, l := range layers {
		switch v := l.(type) {
		case *Conv1D:
			cache.Ensure(v.W, v.OutC, v.InC*v.Kernel)
		case *Dense:
			cache.Ensure(v.W, v.OutFeatures(), v.InFeatures())
		}
	}
	buf.Reset()
	if err := SaveParamsQuant(&buf, params, func(p *Param) *QuantTensor { return cache[p] }, nil); err != nil {
		t.Fatal(err)
	}
	got, gotActs, err := LoadParamsQuant(bytes.NewReader(buf.Bytes()), freshParams)
	if err != nil {
		t.Fatal(err)
	}
	if gotActs != nil {
		t.Fatalf("payload written without activation scales decoded a non-nil ActSet")
	}
	n := 0
	for i, p := range params {
		if q := cache[p]; q != nil {
			g := got[freshParams[i]]
			if g == nil {
				t.Fatalf("param %s lost its quant block", p.Name)
			}
			for j := range q.Q {
				if q.Q[j] != g.Q[j] {
					t.Fatalf("param %s q[%d]: %d vs %d", p.Name, j, q.Q[j], g.Q[j])
				}
			}
			n++
		}
	}
	if n != 3 {
		t.Fatalf("round-tripped %d quant blocks, want 3", n)
	}
}
