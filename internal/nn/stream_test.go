package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"varade/internal/obs"
	"varade/internal/tensor"
)

// jitter moves every parameter (biases start at zero) off its initial
// value, so a dropped or misplaced bias shows.
func jitter(layers []Layer, seed uint64) {
	rng := tensor.NewRNG(seed)
	for _, l := range layers {
		for _, p := range l.Params() {
			d := p.Value.Data()
			for i := range d {
				d[i] += 0.2 * rng.NormFloat64()
			}
		}
	}
}

// streamCase is a cascade a StreamNet can restate, with the window length
// its output covers.
type streamCase struct {
	name     string
	channels int
	window   int
	layers   func(rng *tensor.RNG) []Layer
}

var streamCases = []streamCase{
	{"one-conv", 3, 4, func(rng *tensor.RNG) []Layer {
		return []Layer{NewConv1D(3, 5, 2, 2, 0, rng), NewReLU(), NewFlatten(), NewDense(10, 4, rng)}
	}},
	{"varade-16", 4, 16, func(rng *tensor.RNG) []Layer {
		return []Layer{
			NewConv1D(4, 6, 2, 2, 0, rng), NewReLU(),
			NewConv1D(6, 6, 2, 2, 0, rng), NewReLU(),
			NewConv1D(6, 12, 2, 2, 0, rng), NewReLU(),
			NewFlatten(), NewDense(24, 4, rng),
		}
	}},
	// Kernels other than 2, a layer with two activations, one with none, a
	// head over three positions and an activation after it.
	{"mixed-kernels", 2, 36, func(rng *tensor.RNG) []Layer {
		return []Layer{
			NewConv1D(2, 7, 3, 3, 0, rng), NewTanh(), NewReLU(),
			NewConv1D(7, 5, 1, 1, 0, rng),
			NewConv1D(5, 9, 4, 4, 0, rng), NewSigmoid(),
			NewFlatten(), NewDense(27, 3, rng), NewTanh(),
		}
	}},
	// Wide enough that the last conv and the head are held as panels only
	// and every tile of a one-row product is ragged.
	{"packed-only", 4, 16, func(*tensor.RNG) []Layer { return wideStack() }},
}

// windowsForward is the reference: every window of series (n, c), as a
// channel-major batch through Forward.
func windowsForward[T tensor.Float](net *InferenceNet[T], series []float64, c, w int) *tensor.Dense[T] {
	n := len(series)/c - w + 1
	x := tensor.NewOf[T](n, c, w)
	xd := x.Data()
	for i := 0; i < n; i++ {
		for t := 0; t < w; t++ {
			for ch := 0; ch < c; ch++ {
				xd[(i*c+ch)*w+t] = T(series[(i+t)*c+ch])
			}
		}
	}
	return net.Forward(x)
}

// feed extends s with series in pieces of the given sizes (the last size
// repeats) and returns all output rows, concatenated.
func feed[T tensor.Float](s *StreamState[T], series []float64, c int, pieces []int) []T {
	var out []T
	for i := 0; len(series) > 0; i++ {
		n := min(pieces[min(i, len(pieces)-1)], len(series)/c)
		out = append(out, s.Extend(series[:n*c])...)
		series = series[n*c:]
	}
	return out
}

// TestStreamMatchesForward: fed any way — a row at a time, in pieces that
// straddle the fill, in one piece — a stream emits, for every window,
// exactly the bits Forward computes for it at float64 (same dot products,
// same order), and float32 values within rounding of them.
func TestStreamMatchesForward(t *testing.T) {
	for _, tc := range streamCases {
		layers := tc.layers(tensor.NewRNG(5))
		jitter(layers, 6)
		net64, err := Compile[float64](layers...)
		if err != nil {
			t.Fatal(err)
		}
		net32, err := Compile[float32](layers...)
		if err != nil {
			t.Fatal(err)
		}
		p64, err := net64.Stream()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p32, err := net32.Stream()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p64.Window() != tc.window {
			t.Fatalf("%s: stream covers %d samples, want %d", tc.name, p64.Window(), tc.window)
		}
		w, c := tc.window, tc.channels
		series := tensor.RandNormal(tensor.NewRNG(8), 0, 1, 4*w+11, c).Data() // every ring wraps ≥ 3 times
		want64 := windowsForward(net64, series, c, w).Data()
		want32 := windowsForward(net32, series, c, w).Data()
		for _, pieces := range [][]int{{1}, {2}, {w - 1, 1}, {w}, {w + 1, 3}, {5, 1, 1, 7}, {len(series) / c}} {
			name := fmt.Sprintf("%s/pieces=%v", tc.name, pieces)
			got64 := feed(p64.NewState(), series, c, pieces)
			if len(got64) != len(want64) {
				t.Fatalf("%s: %d outputs, want %d", name, len(got64), len(want64))
			}
			for i := range want64 {
				if math.Float64bits(got64[i]) != math.Float64bits(want64[i]) {
					t.Fatalf("%s: float64 output %d = %x, Forward %x", name, i, got64[i], want64[i])
				}
			}
			got32 := feed(p32.NewState(), series, c, pieces)
			if len(got32) != len(want32) {
				t.Fatalf("%s: %d float32 outputs, want %d", name, len(got32), len(want32))
			}
			for i := range want32 {
				if d := math.Abs(float64(got32[i] - want32[i])); d > 1e-4*math.Max(1, math.Abs(float64(want32[i]))) {
					t.Fatalf("%s: float32 output %d = %g, Forward %g", name, i, got32[i], want32[i])
				}
			}
		}
	}
}

// TestStreamSharesCompiledPanels: the stream program multiplies against the
// compiled ops' own packed weights — no second copy — and keeps
// Σ reach·inC elements of state per stream.
func TestStreamSharesCompiledPanels(t *testing.T) {
	net, err := Compile[float32](wideStack()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := net.Stream()
	if err != nil {
		t.Fatal(err)
	}
	var panels []*tensor.PackedB[float32]
	for _, op := range net.ops {
		switch o := op.(type) {
		case opConv1D[float32]:
			panels = append(panels, o.w)
		case opDense[float32]:
			panels = append(panels, o.w)
		}
	}
	if len(p.layers) != len(panels) {
		t.Fatalf("%d stream layers for %d weighted ops", len(p.layers), len(panels))
	}
	for i := range panels {
		if p.layers[i].w != panels[i] {
			t.Fatalf("layer %d packs its own weights", i)
		}
	}
	// Inputs kept: 1 column of 4 channels, 2 of 64, 4 of 256 and, for the
	// head, 8 of 512.
	if got, want := p.StateLen(), 1*4+2*64+4*256+8*512; got != want {
		t.Fatalf("state of %d elements, want %d", got, want)
	}
}

// TestStreamRejectsOtherPrograms: anything but a kernel = stride, pad-0
// cascade ending in Flatten and one Dense is refused, so its callers keep
// the window path.
func TestStreamRejectsOtherPrograms(t *testing.T) {
	rng := tensor.NewRNG(3)
	head := func() []Layer { return []Layer{NewFlatten(), NewDense(8, 2, rng)} }
	cases := map[string][]Layer{
		"overlapping kernel": append([]Layer{NewConv1D(2, 4, 3, 2, 0, rng)}, head()...),
		"padding":            append([]Layer{NewConv1D(2, 4, 2, 2, 1, rng)}, head()...),
		"no head":            {NewConv1D(2, 4, 2, 2, 0, rng), NewReLU()},
		"no flatten":         {NewConv1D(2, 4, 2, 2, 0, rng), NewDense(8, 2, rng)},
		"two dense":          append(append([]Layer{NewConv1D(2, 4, 2, 2, 0, rng)}, head()...), NewDense(2, 2, rng)),
		"conv after flatten": {NewConv1D(2, 4, 2, 2, 0, rng), NewFlatten(), NewConv1D(4, 4, 2, 2, 0, rng)},
		"channel mismatch":   append([]Layer{NewConv1D(2, 4, 2, 2, 0, rng), NewConv1D(3, 4, 2, 2, 0, rng)}, head()...),
		"ragged head":        {NewConv1D(2, 4, 2, 2, 0, rng), NewFlatten(), NewDense(6, 2, rng)},
		"leading activation": append([]Layer{NewReLU(), NewConv1D(2, 4, 2, 2, 0, rng)}, head()...),
		"dense only":         {NewFlatten(), NewDense(8, 2, rng)},
		"lstm":               {NewLSTM(2, 4, false, rng)},
		"residual block":     append([]Layer{NewResBlock1D(2, 4, rng)}, head()...),
		"transpose conv":     append([]Layer{NewConvTranspose1D(2, 4, 2, 2, 0, rng)}, head()...),
	}
	for name, layers := range cases {
		net, err := Compile[float64](layers...)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if p, err := net.Stream(); err == nil {
			t.Errorf("%s: streams (window %d), want an error", name, p.Window())
		} else if !strings.HasPrefix(err.Error(), "nn: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
}

// TestStreamFeedsStageTimers: every layer of an Extend reports its tap
// gather as "pack" and its product as "gemm", with the columns it computed
// as the window count — the convention of conv1dForward/denseForward.
func TestStreamFeedsStageTimers(t *testing.T) {
	layers := streamCases[1].layers(tensor.NewRNG(5)) // 3 convs + head, window 16
	net, err := Compile[float32](layers...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := net.Stream()
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewState()
	series := tensor.RandNormal(tensor.NewRNG(8), 0, 1, 20, 4).Data()
	s.Extend(series[:15*4]) // fill: no window complete
	stages := func() map[string][2]int64 {
		out := map[string][2]int64{}
		for _, st := range obs.StagesSnapshot() {
			if st.Precision == "f32" {
				out[st.Stage] = [2]int64{st.Calls, st.Windows}
			}
		}
		return out
	}
	before := stages()
	if got := s.Extend(series[15*4:]); len(got) != 5*4 {
		t.Fatalf("%d outputs for 5 completed windows of 4", len(got))
	}
	after := stages()
	for _, stage := range []string{"pack", "gemm"} {
		calls, windows := after[stage][0]-before[stage][0], after[stage][1]-before[stage][1]
		if calls != 4 || windows != 4*5 {
			t.Errorf("%s: %d calls over %d windows, want 4 over 20", stage, calls, windows)
		}
	}
}
