package nn

import (
	"fmt"
	"sync"
	"time"

	"varade/internal/obs"
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
// of its own — every layer multiplies against the panels the compiled op
// already owns, whose columns are in the ic·K+k order the taps are
// interleaved in. Its only mutable part is a pool of scratch that Extends
// borrow (streamScratch), so any number of StreamStates may run it at
// once. One schedule (streamTree, streamRings.advance) decides, for every
// program, which columns are due, gathers their taps and keeps the rings;
// only each layer's product differs:
//
//   - a float program (Compile) multiplies the gathered rows against the
//     op's tensor.PackedB and adds the bias and activations as
//     conv1dForward/denseForward do. The packed engine gives each output
//     element the same chain whatever the row count, so a stream's output
//     is bit-identical to Forward on each window at float32 as at
//     float64;
//   - the int8 program (CompileQuantized, one quantized segment) keeps int8
//     columns in the next stage's quantized domain: the new rows are
//     quantized once, each layer is one tensor.QGemmTransB against the
//     stage's ones-augmented panels and a pointwise requant (qStagePrep),
//     and the head dequantizes. A gathered row is the window lane's im2col
//     row, its ones column the same row sum, int32 accumulation is exact
//     and requant pointwise, so the stream is bit-identical to the int8
//     window lane too.

// streamGeom is one node function of the tree: output column s is computed
// from input columns s, s+dil, …, s+(taps−1)·dil.
type streamGeom struct {
	inC, outC int
	taps, dil int
}

// reach is how far behind its newest input column a layer's oldest tap is —
// the number of input columns a stream keeps for it between calls.
func (g *streamGeom) reach() int { return (g.taps - 1) * g.dil }

// streamTree is the geometry every stream program shares.
type streamTree struct {
	geoms  []streamGeom
	window int // samples under one output row: the product of all taps
	// Widest tap-gathered operand row and widest column over the layers:
	// what one row of a pass's scratch must hold.
	maxA, maxC int
}

// add appends a layer reading the tree's output so far.
func (t *streamTree) add(inC, outC, taps int) {
	t.geoms = append(t.geoms, streamGeom{inC: inC, outC: outC, taps: taps, dil: t.window})
	t.window *= taps
	t.maxA = max(t.maxA, inC*taps)
	t.maxC = max(t.maxC, inC, outC)
}

// rowsIn returns the number of samples in rows.
func (t *streamTree) rowsIn(rows []float64) int {
	c := t.geoms[0].inC
	if len(rows)%c != 0 {
		panic(fmt.Sprintf("nn: stream rows of %d values, want a multiple of %d channels", len(rows), c))
	}
	return len(rows) / c
}

// streamLayer is the product of one float layer.
type streamLayer[T tensor.Float] struct {
	w    *tensor.PackedB[T] // (outC, inC·taps), the compiled op's panels
	b    []T
	relu bool        // the op's fused ReLU: bias and rectifier in one pass
	acts []func([]T) // further pointwise activations, in place, after those
}

// quantLayer is the product of one int8 layer: a stage of the compiled
// segment, as its input quantization, its panels and the requant table it
// derived.
type quantLayer struct {
	in *ActQuant
	w  []int8 // (outC+1, inC·taps) with the all-ones row, packed
	p  *qStagePrep
}

// StreamNet is the incremental form of a compiled program (see above).
type StreamNet[T tensor.Float] struct {
	streamTree
	layers []streamLayer[T] // a float program's layers
	quant  []quantLayer     // an int8 program's layers
	// scratch holds the *floatScratch[T] or *quantScratch[T] a pass of
	// Extend works in, so a stream's scratch is the program's, not its own.
	scratch sync.Pool
}

// Window returns the number of consecutive samples one output row covers —
// the only window length whose Forward output the stream reproduces.
func (p *StreamNet[T]) Window() int { return p.window }

// StateLen returns the number of elements a StreamState keeps between
// calls: Σ reach_j·inC_j over the layers.
func (p *StreamNet[T]) StateLen() int {
	total := 0
	for i := range p.geoms {
		total += p.geoms[i].reach() * p.geoms[i].inC
	}
	return total
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
// Dense whose input is a whole number of positions of the last conv — as
// float ops, or as one quantized segment whose activation scales are
// calibrated.
func (n *InferenceNet[T]) Stream() (*StreamNet[T], error) {
	p := &StreamNet[T]{streamTree: streamTree{window: 1}}
	if len(n.ops) == 1 {
		if seg, ok := any(n.ops[0]).(*opQuantSeg); ok {
			if err := p.restateQuant(seg); err != nil {
				return nil, err
			}
			return p, nil
		}
	}
	p.scratch.New = func() any { return newFloatScratch[T](&p.streamTree, len(p.layers)) }
	add := func(w *tensor.PackedB[T], b *tensor.Dense[T], inC, taps int, relu bool) {
		p.add(inC, w.Rows(), taps)
		p.layers = append(p.layers, streamLayer[T]{w: w, b: b.Data(), relu: relu})
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
		case opReLU[T]: // a ReLU no weighted op absorbed: after another activation
			var zero []T
			if len(p.geoms) > 0 {
				zero = make([]T, p.geoms[len(p.geoms)-1].outC)
			}
			err = act(i, func(xs []T) { tensor.BiasReLU(xs, zero) })
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
			case len(p.geoms) > 0 && p.geoms[len(p.geoms)-1].outC != g.inC:
				err = fmt.Errorf("nn: op %d: Conv1D reads %d channels, previous layer emits %d", i, g.inC, p.geoms[len(p.geoms)-1].outC)
			default:
				add(o.w, o.b, g.inC, g.kernel, o.relu)
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
			case o.w.Cols()%p.geoms[len(p.geoms)-1].outC != 0:
				err = fmt.Errorf("nn: op %d: Dense input %d is not whole positions of %d channels", i, o.w.Cols(), p.geoms[len(p.geoms)-1].outC)
			default:
				inC := p.geoms[len(p.geoms)-1].outC
				add(o.w, o.b, inC, o.w.Cols()/inC, o.relu)
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

// restateQuant makes p the stream of one quantized segment: conv stages of
// kernel = stride and no padding, the last of them flattened, then one
// dense stage. The segment's requant tables are built here, so its scales
// must be calibrated.
func (p *StreamNet[T]) restateQuant(seg *opQuantSeg) error {
	last := len(seg.stages) - 1
	for i, st := range seg.stages {
		var err error
		switch g := st.g; {
		case st.kind == stageDense:
			switch {
			case i != last || i == 0:
				err = fmt.Errorf("nn: int8 stage %d: a stream program ends in Flatten and one Dense", i)
			case st.q.Cols%p.geoms[i-1].outC != 0:
				err = fmt.Errorf("nn: int8 stage %d: Dense input %d is not whole positions of %d channels", i, st.q.Cols, p.geoms[i-1].outC)
			default:
				inC := p.geoms[i-1].outC
				p.add(inC, st.q.Rows, st.q.Cols/inC)
			}
		case g.kernel != g.stride || g.pad != 0:
			err = fmt.Errorf("nn: int8 stage %d: Conv1D k=%d s=%d p=%d cannot stream (needs kernel = stride, pad 0)", i, g.kernel, g.stride, g.pad)
		case i == last || st.flatten != (i == last-1):
			err = fmt.Errorf("nn: int8 stage %d: a stream program ends in Flatten and one Dense", i)
		case i > 0 && p.geoms[i-1].outC != g.inC:
			err = fmt.Errorf("nn: int8 stage %d: Conv1D reads %d channels, previous layer emits %d", i, g.inC, p.geoms[i-1].outC)
		default:
			p.add(g.inC, g.outC, g.kernel)
		}
		if err != nil {
			return err
		}
	}
	if err := seg.prepare(); err != nil {
		return err
	}
	for i, st := range seg.stages {
		p.quant = append(p.quant, quantLayer{in: st.in, w: st.q.panels(), p: &seg.prep[i]})
	}
	p.scratch.New = func() any { return newQuantScratch[T](&p.streamTree) }
	return nil
}

// StreamChunk is the most samples one pass of Extend takes. A longer
// Extend — a warm-up, a backlog — runs in passes of at most this many, so
// the scratch a pass borrows is bounded whatever the backlog. It is the
// window batch the whole-window lane scores at a time (detect.BatchChunk).
const StreamChunk = 256

// StreamState is one stream's position in a StreamNet: the samples it has
// consumed and, for every layer, the input columns its taps still reach
// back to — nothing else. The scratch an Extend works in is borrowed from
// the program. Not safe for concurrent use.
type StreamState[T tensor.Float] struct {
	p *StreamNet[T]
	f streamRings[T]    // a float program's columns
	q streamRings[int8] // an int8 program's columns
}

// NewState returns a stream positioned before its first sample.
func (p *StreamNet[T]) NewState() *StreamState[T] {
	s := &StreamState[T]{p: p}
	if p.quant != nil {
		s.q = newStreamRings[int8](&p.streamTree)
	} else {
		s.f = newStreamRings[T](&p.streamTree)
	}
	return s
}

// Extend consumes rows — n consecutive samples, time-major (n, channels) —
// and hands emit the program's output for every window they complete, one
// row each in stream order: n rows in all once Window()−1 samples have gone
// before, fewer (or none) while the stream fills. The samples are taken in
// passes of at most StreamChunk, each layer computing a pass's new columns
// with one GEMM, and emit is called once per pass that completes a window.
// The rows it is handed are the program's scratch: they are valid only
// until emit returns.
func (s *StreamState[T]) Extend(rows []float64, emit func(out []T)) {
	p := s.p
	c := p.geoms[0].inC
	p.rowsIn(rows)
	sc := p.scratch.Get()
	defer p.scratch.Put(sc)
	for len(rows) > 0 {
		n := min(len(rows), StreamChunk*c)
		var out []T
		if p.quant != nil {
			out = s.extendQuant(sc.(*quantScratch[T]), rows[:n])
		} else {
			out = s.extendFloat(sc.(*floatScratch[T]), rows[:n])
		}
		if len(out) > 0 {
			emit(out)
		}
		rows = rows[n:]
	}
}

// streamRings is one stream's position in a streamTree whose columns are
// of type E: the samples consumed, and position-major rings of every
// layer's input columns.
type streamRings[E any] struct {
	pos   int   // samples consumed
	rings [][]E // rings[j]: input column q of layer j at slot q mod reach_j
}

func newStreamRings[E any](t *streamTree) streamRings[E] {
	s := streamRings[E]{rings: make([][]E, len(t.geoms))}
	for j := range t.geoms {
		s.rings[j] = make([]E, t.geoms[j].reach()*t.geoms[j].inC)
	}
	return s
}

// streamScratch is what one pass of an Extend works in, sized once for
// StreamChunk rows of the widest layer: the tap-gathered operand of the
// current layer, and the columns it reads and writes.
type streamScratch[E any] struct {
	a    []E
	cols [2][]E // cols[0] the new input columns, then layer outputs, alternating
}

func newStreamScratch[E any](t *streamTree) streamScratch[E] {
	return streamScratch[E]{
		a:    make([]E, StreamChunk*t.maxA),
		cols: [2][]E{make([]E, StreamChunk*t.maxC), make([]E, StreamChunk*t.maxC)},
	}
}

// advance runs the schedule over n new input columns, already in
// sc.cols[0]. For each layer it gathers the taps of every output column now
// due into one (m, inC·taps) operand, in the ic·taps+k order of the window
// path's im2col rows, hands it to layer to compute those m columns into
// out, and keeps the input columns the next call's taps reach back to. The
// gather is timed as pack. It returns the last layer's m: the windows
// completed.
func (s *streamRings[E]) advance(sc *streamScratch[E], t *streamTree, n int, pack *obs.StageTimer, layer func(j, m int, a, out []E)) int {
	in := sc.cols[0][:n*t.geoms[0].inC]
	first, cnt := s.pos, n
	s.pos += n
	for j := range t.geoms {
		g := &t.geoms[j]
		reach, kw := g.reach(), g.inC*g.taps
		ring := s.rings[j]
		// Output column q is due once input column q+reach has arrived.
		oFirst := max(0, first-reach)
		m := max(0, first+cnt-reach) - oFirst
		out := sc.cols[(j+1)%2][:m*g.outC]
		if m > 0 {
			a := sc.a[:m*kw]
			tP := time.Now()
			inC, taps, dil := g.inC, g.taps, g.dil
			col := func(q int) []E { // input column q, new or kept
				if q >= first {
					return in[(q-first)*inC : (q-first+1)*inC]
				}
				return ring[q%reach*inC : (q%reach+1)*inC]
			}
			for i := 0; i < m; i++ {
				row := a[i*kw : (i+1)*kw]
				if taps == 2 { // every VARADE layer: interleave a pair
					s0, s1 := col(oFirst+i), col(oFirst+i+dil)
					s1, row = s1[:len(s0)], row[:2*len(s0)]
					for ic, v := range s0 {
						row[2*ic], row[2*ic+1] = v, s1[ic]
					}
					continue
				}
				for k := 0; k < taps; k++ {
					dst := row[k:]
					for ic, v := range col(oFirst + i + k*dil) {
						dst[ic*taps] = v
					}
				}
			}
			pack.Observe(time.Since(tP), m)
			layer(j, m, a, out)
		}
		// Keep the input columns the next call's taps reach back to.
		for q := max(first, first+cnt-reach); q < first+cnt; q++ {
			copy(ring[q%reach*g.inC:(q%reach+1)*g.inC], in[(q-first)*g.inC:(q-first+1)*g.inC])
		}
		in, first, cnt = out, oFirst, m
	}
	return cnt
}

// floatScratch is a float program's pass scratch: columns of type T, and
// the tensor headers of each layer's GEMM over them.
type floatScratch[T tensor.Float] struct {
	streamScratch[T]
	views [][2]streamViews[T]
}

func newFloatScratch[T tensor.Float](t *streamTree, layers int) *floatScratch[T] {
	return &floatScratch[T]{streamScratch: newStreamScratch[T](t), views: make([][2]streamViews[T], layers)}
}

// streamViews are the tensor headers of one layer's GEMM over m rows of the
// scratch.
type streamViews[T tensor.Float] struct {
	m      int
	a, out *tensor.Dense[T]
}

// viewsFor returns layer j's headers over m rows. Each layer keeps the two
// last used, so a run of full passes and the short pass that ends each
// Extend both find theirs.
func (sc *floatScratch[T]) viewsFor(j, m int, a, out []T, g *streamGeom) *streamViews[T] {
	vs := &sc.views[j]
	if vs[0].m != m {
		if vs[1].m == m {
			vs[0], vs[1] = vs[1], vs[0]
		} else {
			vs[1] = vs[0]
			vs[0] = streamViews[T]{m: m, a: tensor.FromSlice(a, m, g.inC*g.taps), out: tensor.FromSlice(out, m, g.outC)}
		}
	}
	return &vs[0]
}

// extendFloat runs one pass of at most StreamChunk samples through a float
// program and returns the head's rows, in sc.
func (s *StreamState[T]) extendFloat(sc *floatScratch[T], rows []float64) []T {
	t := &s.p.streamTree
	n := len(rows) / t.geoms[0].inC
	tensor.ConvertSlice(sc.cols[0][:len(rows)], rows)
	st := precTimers[T]()
	m := s.f.advance(&sc.streamScratch, t, n, st.pack, func(j, m int, a, out []T) {
		l, g := &s.p.layers[j], &t.geoms[j]
		tG := time.Now()
		v := sc.viewsFor(j, m, a, out, g)
		tensor.MatMulPackedInto(v.out, v.a, l.w)
		st.gemm.Observe(time.Since(tG), m)
		for i := 0; i < m; i++ {
			row := out[i*g.outC : (i+1)*g.outC]
			if l.relu {
				tensor.BiasReLU(row, l.b)
			} else {
				for oc := range row {
					row[oc] += l.b[oc]
				}
			}
			for _, f := range l.acts {
				f(row)
			}
		}
	})
	return sc.cols[len(t.geoms)%2][:m*t.geoms[len(t.geoms)-1].outC]
}

// int8PackTimer times the int8 stream's tap gather, as the float streams'
// pack timers do theirs; the window lane has no such stage (its requant
// writes the next im2col directly).
var int8PackTimer = obs.ComputeStage("pack", "int8")

// quantScratch is an int8 program's pass scratch: int8 columns, each in
// the quantized domain of the layer that reads it, and the head
// dequantized to T.
type quantScratch[T tensor.Float] struct {
	streamScratch[int8]
	acc []int32   // one layer's accumulators, (m, outC+1)
	x32 []float32 // the new rows at float32, before quantization
	out []T       // the head's rows
}

func newQuantScratch[T tensor.Float](t *streamTree) *quantScratch[T] {
	return &quantScratch[T]{
		streamScratch: newStreamScratch[int8](t),
		acc:           make([]int32, StreamChunk*(t.maxC+1)),
		x32:           make([]float32, StreamChunk*t.geoms[0].inC),
		out:           make([]T, StreamChunk*t.geoms[len(t.geoms)-1].outC),
	}
}

// extendQuant runs one pass of at most StreamChunk samples through an int8
// program and returns the head's rows, in sc.
func (s *StreamState[T]) extendQuant(sc *quantScratch[T], rows []float64) []T {
	t := &s.p.streamTree
	n := len(rows) / t.geoms[0].inC
	head := len(t.geoms) - 1
	// Quantize once, through the first stage's scale, as the window lane
	// quantizes each window: float64 → float32 → int8, elementwise.
	tQ := time.Now()
	x32 := sc.x32[:len(rows)]
	tensor.ConvertSlice(x32, rows)
	in := s.p.quant[0].in
	in.noteClipped(tensor.QuantizeAffine(sc.cols[0], x32, 1/in.Scale, float32(in.Zero)), len(rows))
	dQ := time.Since(tQ)
	var gemmD, requantD time.Duration
	m := s.q.advance(&sc.streamScratch, t, n, int8PackTimer, func(j, m int, a, out []int8) {
		l, g := &s.p.quant[j], &t.geoms[j]
		ld := g.outC + 1 // + the synthetic row-sum column
		acc := sc.acc[:m*ld]
		tG := time.Now()
		tensor.QGemmTransB(acc, a, l.w, m, g.inC*g.taps, ld)
		tR := time.Now()
		gemmD += tR.Sub(tG)
		if j == head {
			for i := 0; i < m; i++ {
				dequantRow(l.p, sc.out[i*g.outC:(i+1)*g.outC], 1, acc[i*ld:i*ld+g.outC], acc[i*ld+g.outC])
			}
		} else {
			clipped := 0
			for i := 0; i < m; i++ {
				clipped += l.p.requantRow(out[i*g.outC:(i+1)*g.outC], 1, acc[i*ld:i*ld+g.outC], acc[i*ld+g.outC])
			}
			s.p.quant[j+1].in.noteClipped(clipped, m*g.outC)
		}
		requantD += time.Since(tR)
	})
	int8QuantTimer.Observe(dQ, m)
	int8GemmTimer.Observe(gemmD, m)
	int8RequantTimer.Observe(requantD, m)
	return sc.out[:m*t.geoms[head].outC]
}
