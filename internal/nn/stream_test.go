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
	// ReLU only, so it is also one int8 segment: kernels 3, 1 and 4 put
	// every mid stage off the paired SIMD requant, one conv has no ReLU and
	// the head covers three positions.
	{"int8-kernels", 2, 36, func(rng *tensor.RNG) []Layer {
		return []Layer{
			NewConv1D(2, 7, 3, 3, 0, rng), NewReLU(),
			NewConv1D(7, 16, 1, 1, 0, rng),
			NewConv1D(16, 5, 4, 4, 0, rng), NewReLU(),
			NewFlatten(), NewDense(15, 3, rng),
		}
	}},
}

// streamsInt8 reports whether a case's layers compile to one quantized
// segment (Conv1D, ReLU, Flatten, Dense only).
func streamsInt8(layers []Layer) bool {
	for _, l := range layers {
		switch l.(type) {
		case *Conv1D, *ReLU, *Flatten, *Dense:
		default:
			return false
		}
	}
	return true
}

// quantStreamPair compiles layers to the int8 program, calibrated on x,
// and restates it over the series.
func quantStreamPair(t *testing.T, x *tensor.Tensor32, layers []Layer) (*InferenceNet[float32], *StreamNet[float32]) {
	t.Helper()
	qnet := compileCalibrated(t, make(QuantCache), x, layers...)
	p, err := qnet.Stream()
	if err != nil {
		t.Fatal(err)
	}
	return qnet, p
}

// checkBits fails unless got and want hold the same bits.
func checkBits[T tensor.Float](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: output %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// windowsOf returns every window of series (n, c) as one channel-major
// batch.
func windowsOf[T tensor.Float](series []float64, c, w int) *tensor.Dense[T] {
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
	return x
}

// windowsForward is the reference: every window of series (n, c) through
// Forward.
func windowsForward[T tensor.Float](net *InferenceNet[T], series []float64, c, w int) *tensor.Dense[T] {
	return net.Forward(windowsOf[T](series, c, w))
}

// feed extends s with series in pieces of the given sizes (the last size
// repeats) and returns all output rows, concatenated.
func feed[T tensor.Float](s *StreamState[T], series []float64, c int, pieces []int) []T {
	var out []T
	for i := 0; len(series) > 0; i++ {
		n := min(pieces[min(i, len(pieces)-1)], len(series)/c)
		s.Extend(series[:n*c], func(rows []T) { out = append(out, rows...) })
		series = series[n*c:]
	}
	return out
}

// TestStreamMatchesForward: fed any way — a row at a time, in pieces that
// straddle the fill, in one piece — a stream emits, for every window,
// exactly the bits Forward computes for it, at float64 and at float32: the
// same dot products in the same order, whatever rows each product had.
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
			checkBits(t, name+" float32", feed(p32.NewState(), series, c, pieces), want32)
		}
	}
}

// TestQuantStreamMatchesWindowLane: restated over the series, a calibrated
// int8 program emits for every window, fed any way, exactly the bits its
// window lane (Forward) computes — the same im2col rows, row sums, int32
// dots and pointwise requant — and leaves the activation scales alone.
func TestQuantStreamMatchesWindowLane(t *testing.T) {
	for _, tc := range streamCases {
		layers := tc.layers(tensor.NewRNG(5))
		if !streamsInt8(layers) {
			continue
		}
		jitter(layers, 6)
		w, c := tc.window, tc.channels
		series := tensor.RandNormal(tensor.NewRNG(8), 0, 1, 4*w+11, c).Data()
		x := windowsOf[float32](series, c, w)
		qnet, p := quantStreamPair(t, x, layers)
		if p.Window() != w {
			t.Fatalf("%s: int8 stream covers %d samples, want %d", tc.name, p.Window(), w)
		}
		want := qnet.Forward(x).Data()
		for _, pieces := range [][]int{{1}, {2}, {w - 1, 1}, {w}, {w + 1, 3}, {5, 1, 1, 7}, {len(series) / c}} {
			checkBits(t, fmt.Sprintf("%s/int8/pieces=%v", tc.name, pieces), feed(p.NewState(), series, c, pieces), want)
		}
	}
}

// TestQuantStreamRefusesUncalibrated: an int8 program has no stream until
// its activation scales are latched, and a segment that is not a conv
// cascade + Flatten + Dense has none at all.
func TestQuantStreamRefusesUncalibrated(t *testing.T) {
	rng := tensor.NewRNG(3)
	qnet, err := CompileQuantized(nil, NewActSet(), testStack(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qnet.Stream(); err == nil || !strings.Contains(err.Error(), "calibrated") {
		t.Fatalf("uncalibrated int8 program streamed (err %v)", err)
	}
	x := tensor.Convert[float32](tensor.RandNormal(rng, 0, 1, 2, 2, 8))
	for name, layers := range map[string][]Layer{
		"overlapping kernel": {NewConv1D(2, 4, 3, 2, 0, rng), NewReLU(), NewFlatten(), NewDense(12, 2, rng)},
		"conv head":          {NewConv1D(2, 4, 2, 2, 0, rng), NewReLU()},
		"dense only":         {NewFlatten(), NewDense(16, 2, rng)},
		"two dense":          {NewConv1D(2, 4, 2, 2, 0, rng), NewFlatten(), NewDense(16, 4, rng), NewDense(4, 2, rng)},
	} {
		qnet := compileCalibrated(t, make(QuantCache), x, layers...)
		if p, err := qnet.Stream(); err == nil {
			t.Errorf("%s: int8 program streams (window %d), want an error", name, p.Window())
		} else if !strings.HasPrefix(err.Error(), "nn: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
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
	s.Extend(series[:15*4], func([]float32) { t.Fatal("a window completed while the stream filled") })
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
	var got []float32
	s.Extend(series[15*4:], func(rows []float32) { got = append(got, rows...) })
	if len(got) != 5*4 {
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

// FuzzStreamSplits draws a random streamable cascade — one to three convs
// of kernel = stride 1…4 and 1…17 maps, each with or without a ReLU, and a
// head over one to three positions — and feeds it a series that wraps every
// ring at least three times, in random Extend pieces. The float64 and the
// float32 streams must return their Forward's bits for every window, and
// the int8 stream of the same layers its window lane's.
func FuzzStreamSplits(f *testing.F) {
	f.Add(uint64(1), uint64(1))
	f.Add(uint64(2), uint64(7))
	f.Add(uint64(5), uint64(42))
	f.Fuzz(func(t *testing.T, geomSeed, splitSeed uint64) {
		rng := tensor.NewRNG(geomSeed)
		c := 1 + rng.Intn(4)
		var layers []Layer
		inC, w := c, 1
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k, outC := 1+rng.Intn(4), []int{1, 3, 8, 16, 17}[rng.Intn(5)]
			layers = append(layers, NewConv1D(inC, outC, k, k, 0, rng))
			if rng.Intn(4) > 0 {
				layers = append(layers, NewReLU())
			}
			inC, w = outC, w*k
		}
		taps := 1 + rng.Intn(3)
		layers = append(layers, NewFlatten(), NewDense(inC*taps, 1+rng.Intn(4), rng))
		w *= taps
		jitter(layers, geomSeed+1)
		series := tensor.RandNormal(rng, 0, 1, 4*w+1+rng.Intn(20), c).Data()

		split := tensor.NewRNG(splitSeed)
		var pieces []int
		for left := len(series) / c; left > 0; {
			n := min(left, 1+split.Intn(2*w+2))
			pieces = append(pieces, n)
			left -= n
		}
		name := fmt.Sprintf("c=%d w=%d pieces=%v", c, w, pieces)

		net64, err := Compile[float64](layers...)
		if err != nil {
			t.Fatal(err)
		}
		p64, err := net64.Stream()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBits(t, name+" float64", feed(p64.NewState(), series, c, pieces), windowsForward(net64, series, c, w).Data())

		net32, err := Compile[float32](layers...)
		if err != nil {
			t.Fatal(err)
		}
		p32, err := net32.Stream()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBits(t, name+" float32", feed(p32.NewState(), series, c, pieces), windowsForward(net32, series, c, w).Data())

		x := windowsOf[float32](series, c, w)
		qnet, p8 := quantStreamPair(t, x, layers)
		checkBits(t, name+" int8", feed(p8.NewState(), series, c, pieces), qnet.Forward(x).Data())
	})
}
