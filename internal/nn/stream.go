package nn

import (
	"fmt"
	"time"

	"varade/internal/tensor"
)

// Stream programs: a compiled cascade restated over the series instead of
// the window. A trunk of Conv1D layers whose kernel equals their stride
// (no padding, pointwise activations between them) followed by Flatten and
// one Dense is a dilated tree over the stream it slides along. With
// g_0 = x and, for layer j of kernel K_j reading its input d_j = K_1·…·K_{j-1}
// samples apart,
//
//	g_j(s) = act_j(W_j·[g_{j-1}(s), g_{j-1}(s+d_j), …, g_{j-1}(s+(K_j−1)·d_j)] + b_j)
//
// the window that starts at stream position t yields, as layer j's output
// position i, exactly g_j(t + d_{j+1}·i); Flatten + Dense is one more such
// layer whose kernel is the trunk's final length. Hop-1 windows therefore
// share every column but the newest one per layer: a sample that arrives
// costs one new column per layer, whatever the window length.
//
// A StreamNet is that restatement of an InferenceNet. It holds no weights
// of its own — every layer multiplies against the tensor.PackedB the
// compiled op already owns, whose columns are in the ic·K+k order the taps
// are interleaved in — and is immutable, so any number of StreamStates may
// run it at once. The dot products, their ascending-k order, the bias add
// and the activations are those of conv1dForward/denseForward, so at
// float64 a stream's output is bit-identical to Forward on each window.

// streamLayer is one node function of the tree: output column s is computed
// from input columns s, s+dil, …, s+(taps−1)·dil.
type streamLayer[T tensor.Float] struct {
	w         *tensor.PackedB[T] // (outC, inC·taps), the compiled op's panels
	b         []T
	inC, outC int
	taps, dil int
	acts      []func([]T) // pointwise activations, in place, after the bias
}

// reach is how far behind its newest input column a layer's oldest tap is —
// the number of input columns a stream keeps for it between calls.
func (l *streamLayer[T]) reach() int { return (l.taps - 1) * l.dil }

// StreamNet is the incremental form of a compiled program (see above).
type StreamNet[T tensor.Float] struct {
	layers []streamLayer[T]
	window int // samples under one output row: the product of all taps
	// Widest tap-gathered operand row and widest column over the layers:
	// what one row of a state's scratch must hold.
	maxA, maxC int
}

// Window returns the number of consecutive samples one output row covers —
// the only window length whose Forward output the stream reproduces.
func (p *StreamNet[T]) Window() int { return p.window }

// StateLen returns the number of elements a StreamState keeps between
// calls: Σ reach_j·inC_j over the layers.
func (p *StreamNet[T]) StateLen() int {
	total := 0
	for i := range p.layers {
		total += p.layers[i].reach() * p.layers[i].inC
	}
	return total
}

func reluInPlace[T tensor.Float](xs []T) {
	for i, v := range xs {
		if !(v > 0) { // as opReLU: NaN and −0 become +0
			xs[i] = 0
		}
	}
}

func applyInPlace[T tensor.Float](f func(T) T) func([]T) {
	return func(xs []T) {
		for i, v := range xs {
			xs[i] = f(v)
		}
	}
}

// Stream restates the program over the series. It returns an error unless
// the program is Conv1D layers with kernel = stride and no padding, each
// optionally followed by pointwise activations, then Flatten and a single
// Dense whose input is a whole number of positions of the last conv.
func (n *InferenceNet[T]) Stream() (*StreamNet[T], error) {
	p := &StreamNet[T]{window: 1}
	add := func(w *tensor.PackedB[T], b *tensor.Dense[T], inC, taps int) {
		p.layers = append(p.layers, streamLayer[T]{
			w: w, b: b.Data(), inC: inC, outC: w.Rows(), taps: taps, dil: p.window,
		})
		p.window *= taps
		p.maxA = max(p.maxA, inC*taps)
		p.maxC = max(p.maxC, inC, w.Rows())
	}
	act := func(i int, f func([]T)) error {
		if len(p.layers) == 0 {
			return fmt.Errorf("nn: op %d: a stream program cannot start with an activation", i)
		}
		last := &p.layers[len(p.layers)-1]
		last.acts = append(last.acts, f)
		return nil
	}
	flat, done := false, false
	for i, op := range n.ops {
		var err error
		switch o := op.(type) {
		case opReLU[T]:
			err = act(i, reluInPlace[T])
		case opTanh[T]:
			err = act(i, applyInPlace(tanhT[T]))
		case opSigmoid[T]:
			err = act(i, applyInPlace(sigmoidT[T]))
		case opConv1D[T]:
			g := o.g
			switch {
			case flat:
				err = fmt.Errorf("nn: op %d: Conv1D after Flatten cannot stream", i)
			case g.kernel != g.stride || g.pad != 0:
				err = fmt.Errorf("nn: op %d: Conv1D k=%d s=%d p=%d cannot stream (needs kernel = stride, pad 0)", i, g.kernel, g.stride, g.pad)
			case len(p.layers) > 0 && p.layers[len(p.layers)-1].outC != g.inC:
				err = fmt.Errorf("nn: op %d: Conv1D reads %d channels, previous layer emits %d", i, g.inC, p.layers[len(p.layers)-1].outC)
			default:
				add(o.w, o.b, g.inC, g.kernel)
			}
		case opFlatten[T]:
			if flat || len(p.layers) == 0 {
				err = fmt.Errorf("nn: op %d: Flatten must follow the conv cascade once", i)
			}
			flat = true
		case opDense[T]:
			switch {
			case !flat || done:
				err = fmt.Errorf("nn: op %d: a stream program ends in Flatten and one Dense", i)
			case o.w.Cols()%p.layers[len(p.layers)-1].outC != 0:
				err = fmt.Errorf("nn: op %d: Dense input %d is not whole positions of %d channels", i, o.w.Cols(), p.layers[len(p.layers)-1].outC)
			default:
				inC := p.layers[len(p.layers)-1].outC
				add(o.w, o.b, inC, o.w.Cols()/inC)
				done = true
			}
		default:
			err = fmt.Errorf("nn: op %d: %T cannot stream", i, op)
		}
		if err != nil {
			return nil, err
		}
	}
	if !done {
		return nil, fmt.Errorf("nn: a stream program ends in Flatten and one Dense")
	}
	return p, nil
}

// StreamState is one stream's position in a StreamNet: for every layer, the
// input columns its taps still reach back to (position-major rings), plus
// scratch for the rows of one Extend. Not safe for concurrent use.
type StreamState[T tensor.Float] struct {
	p     *StreamNet[T]
	pos   int   // samples consumed
	rings [][]T // rings[j]: input column q of layer j at slot q mod reach_j

	// Scratch sized for the row count of the last Extend, so a stream fed
	// one sample at a time holds one row of it and allocates nothing.
	rows  int
	a     []T    // tap-gathered GEMM operand of the current layer
	cols  [2][]T // layer outputs, alternating
	views []streamViews[T]
}

// streamViews are the tensor headers of one layer's GEMM over m rows of the
// scratch, kept while m repeats.
type streamViews[T tensor.Float] struct {
	m      int
	a, out *tensor.Dense[T]
}

// NewState returns a stream positioned before its first sample.
func (p *StreamNet[T]) NewState() *StreamState[T] {
	s := &StreamState[T]{p: p, rings: make([][]T, len(p.layers)), views: make([]streamViews[T], len(p.layers))}
	for j := range p.layers {
		s.rings[j] = make([]T, p.layers[j].reach()*p.layers[j].inC)
	}
	return s
}

// reserve sizes the scratch for n rows.
func (s *StreamState[T]) reserve(n int) {
	if n == s.rows {
		return
	}
	s.rows = n
	s.a = make([]T, n*s.p.maxA)
	s.cols = [2][]T{make([]T, n*s.p.maxC), make([]T, n*s.p.maxC)}
	clear(s.views)
}

// Extend consumes rows — n consecutive samples, time-major (n, channels) —
// and returns the program's output for every window they complete, one row
// each in stream order: n rows once Window()−1 samples have gone before,
// fewer (or none) while the stream fills. Each layer computes its new
// columns with one GEMM, whatever n is. The result is scratch, valid until
// the next Extend.
func (s *StreamState[T]) Extend(rows []float64) []T {
	layers := s.p.layers
	c := layers[0].inC
	if len(rows)%c != 0 {
		panic(fmt.Sprintf("nn: stream rows of %d values, want a multiple of %d channels", len(rows), c))
	}
	n := len(rows) / c
	s.reserve(n)
	st := precTimers[T]()

	// in holds columns [first, first+cnt) of the current layer's input.
	in := s.cols[0][:len(rows)]
	tensor.ConvertSlice(in, rows)
	first, cnt := s.pos, n
	s.pos += n
	for j := range layers {
		l := &layers[j]
		reach, kw := l.reach(), l.inC*l.taps
		ring := s.rings[j]
		// Output column q is due once input column q+reach has arrived.
		oFirst := max(0, first-reach)
		m := max(0, first+cnt-reach) - oFirst
		out := s.cols[(j+1)%2][:m*l.outC]
		if m > 0 {
			a := s.a[:m*kw]
			tP := time.Now()
			for i := 0; i < m; i++ {
				row := a[i*kw : (i+1)*kw]
				for k := 0; k < l.taps; k++ {
					var src []T
					if q := oFirst + i + k*l.dil; q >= first {
						src = in[(q-first)*l.inC : (q-first+1)*l.inC]
					} else {
						src = ring[q%reach*l.inC : (q%reach+1)*l.inC]
					}
					for ic, v := range src {
						row[ic*l.taps+k] = v
					}
				}
			}
			tG := time.Now()
			st.pack.Observe(tG.Sub(tP), m)
			v := &s.views[j]
			if v.m != m {
				*v = streamViews[T]{m: m, a: tensor.FromSlice(a, m, kw), out: tensor.FromSlice(out, m, l.outC)}
			}
			tensor.MatMulPackedInto(v.out, v.a, l.w)
			st.gemm.Observe(time.Since(tG), m)
			for i := 0; i < m; i++ {
				row := out[i*l.outC : (i+1)*l.outC]
				for oc := range row {
					row[oc] += l.b[oc]
				}
				for _, f := range l.acts {
					f(row)
				}
			}
		}
		// Keep the input columns the next call's taps reach back to.
		for q := max(first, first+cnt-reach); q < first+cnt; q++ {
			copy(ring[q%reach*l.inC:(q%reach+1)*l.inC], in[(q-first)*l.inC:(q-first+1)*l.inC])
		}
		in, first, cnt = out, oFirst, m
	}
	return in
}
