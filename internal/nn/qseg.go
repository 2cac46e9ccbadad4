package nn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"varade/internal/obs"
	"varade/internal/tensor"
)

// opQuantSeg is the true-int8 inference lane: a maximal run of
// {Conv1D, ReLU, Flatten, Dense} layers executed as one segment whose
// inter-stage activations stay int8. Each stage quantizes nothing on its
// own — the segment input is quantized once through the first stage's
// ActQuant, every GEMM is int8×int8 with exact int32 accumulation
// (tensor.QGemmTransB), and each stage requantizes its int32 tile
// directly to the next stage's int8 domain (fusing ReLU, which is exact
// there: the 0-anchored ranges map x = 0 to the zero point, so
// max(x, 0) is max(q, zero)). Only the head stage dequantizes, back to
// float32.
//
// The requantization applies the affine identity for per-channel weights
// (scale sw, zero zw) against per-tensor activations (sx, zx):
//
//	y[i,r] = sw[r]·sx·(Σ_c qx·qw − zw[r]·rsX[i] − zx·rsW[r] + K·zw[r]·zx) + b[r]
//
// where rsX/rsW are activation/weight row sums and K the inner extent.
// Everything except the raw Σ qx·qw is folded into per-channel constants
// once the scales are known (qStagePrep), so the hot loop is one
// multiply-add and a clamp per output element. rsX is never computed separately: the
// weight panels carry a synthetic all-ones output channel
// (QuantTensor.panels), so each stage's GEMM emits its activation row
// sums as output column Rows — every acc tile here is (m, Rows+1) with
// the row sum in the last column.
//
// The scales are latched before a segment first runs — restored from a
// container, or observed by ActSet.Calibrate through the float32 program
// of the same layers — and the segment derives its requantization tables
// from them once, on its first batch, so every batch, the first included,
// scores through int8 with the same constants.

const (
	stageConv = iota
	stageDense
)

// qStage is one GEMM-bearing stage of a quantized segment.
type qStage struct {
	kind    int
	q       *QuantTensor
	b       []float32
	g       convGeom // conv stages only
	relu    bool     // fused ReLU on the stage output
	flatten bool     // (b, C, L) → (b, C·L) reshape after the stage
	in      *ActQuant
}

// qStagePrep is the per-channel requantization table derived once from
// the latched scales: corr = acc − zw[r]·rsX + cw[r], then m[r]·corr +
// c[r] is the next stage's quantized value (mid stages, with zn its zero
// point) or the dequantized float32 output (head stage).
type qStagePrep struct {
	zw []int32   // weight zero points, widened
	cw []int32   // K·zw·zx − zx·rsW, per channel
	m  []float32 // sw·sx/s_next (mid) or sw·sx (head)
	c  []float32 // b/s_next + z_next (mid) or b (head)
	zn int8      // next stage's zero point (mid stages)
}

type opQuantSeg struct {
	acts   *ActSet
	stages []*qStage
	ready  atomic.Bool
	prep   []qStagePrep
}

func (o *opQuantSeg) Apply(x *tensor.Tensor32) *tensor.Tensor32 {
	if !o.ready.Load() {
		o.prepare()
	}
	return o.forwardInt8(x)
}

func (o *opQuantSeg) weightBytes() int {
	total := 0
	for _, st := range o.stages {
		total += st.q.NumBytes() + 4*len(st.b)
	}
	return total
}

// prepare builds the requant tables from the latched activation scales.
// Runs once, under the ActSet mutex the scales were latched under; the
// ready flag's atomic Store/Load pair publishes the tables to lock-free
// readers.
func (o *opQuantSeg) prepare() {
	o.acts.mu.Lock()
	defer o.acts.mu.Unlock()
	if o.ready.Load() {
		return
	}
	for _, st := range o.stages {
		if !st.in.Calibrated() {
			panic(fmt.Sprintf("nn: int8 stage %s ran before its activation scale was calibrated", st.in.Label))
		}
	}
	o.buildPrep()
	o.ready.Store(true)
}

func (o *opQuantSeg) buildPrep() {
	o.prep = make([]qStagePrep, len(o.stages))
	for i, st := range o.stages {
		q := st.q
		k := int32(q.Cols)
		rsW := q.RowSums()
		sx := st.in.Scale
		zx := int32(st.in.Zero)
		p := qStagePrep{
			zw: make([]int32, q.Rows),
			cw: make([]int32, q.Rows),
			m:  make([]float32, q.Rows),
			c:  make([]float32, q.Rows),
		}
		var next *ActQuant
		if i+1 < len(o.stages) {
			next = o.stages[i+1].in
			p.zn = next.Zero
		}
		for r := 0; r < q.Rows; r++ {
			zw := int32(q.Zero[r])
			p.zw[r] = zw
			p.cw[r] = k*zw*zx - zx*rsW[r]
			mf := q.Scale[r] * sx
			var bias float32
			if st.b != nil {
				bias = st.b[r]
			}
			if next != nil {
				p.m[r] = mf / next.Scale
				p.c[r] = bias/next.Scale + float32(next.Zero)
			} else {
				p.m[r] = mf
				p.c[r] = bias
			}
		}
		o.prep[i] = p
	}
}

// qScratch holds one forward pass's working buffers: the current and
// next stages' int8 A-matrices (ping-ponged), a spare channel-major
// int8 tensor for the im2col fallback, and the int32 GEMM accumulator.
// Pooled so steady-state batch scoring allocates nothing per pass.
type qScratch struct {
	a, a2, xq []int8
	acc       []int32
}

var qScratchPool = sync.Pool{New: func() any { return new(qScratch) }}

// i8Buf / i32Buf resize a pooled buffer to n elements, reallocating only
// on growth. Contents are unspecified — every caller fully overwrites.
func i8Buf(buf *[]int8, n int) []int8 {
	if cap(*buf) < n {
		*buf = make([]int8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func i32Buf(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// forwardInt8 is the hot lane. Between stages the activations live as
// the NEXT stage's A-matrix: the segment input is quantized straight
// into the first stage's im2col layout, and each mid stage's requant
// writes directly into its successor's layout — im2col rows for a
// non-overlapping unpadded conv (one slot per value, the VARADE
// geometry), flattened dense rows after a conv+flatten. Only convs with
// overlapping or padded windows fall back to a materialised
// channel-major tensor plus the standalone int8 im2col. Every GEMM runs
// at rows = Rows+1 against the ones-augmented panels, so each acc tile
// carries its activation row sums in the last column and no requant
// pass needs them precomputed.
func (o *opQuantSeg) forwardInt8(x *tensor.Tensor32) *tensor.Tensor32 {
	batch := x.Dim(0)
	l := 0
	if len(x.Shape()) == 3 {
		l = x.Dim(2)
	}
	s := qScratchPool.Get().(*qScratch)
	defer qScratchPool.Put(s)
	tQ := time.Now() // stage timers: one Observe per batch, per stage kind
	var a []int8     // current stage's (m, k) GEMM input
	st0 := o.stages[0]
	if st0.kind == stageConv {
		g := st0.g
		lo := g.outLen(l)
		if lo <= 0 {
			panic(fmt.Sprintf("nn: quantized Conv1D input length %d too short for k=%d s=%d p=%d", l, g.kernel, g.stride, g.pad))
		}
		kw := g.inC * g.kernel
		a = i8Buf(&s.a, batch*lo*kw)
		if g.inC == 1 && g.kernel == g.stride && g.pad == 0 && lo*g.stride == l {
			// Single-channel non-overlapping unpadded conv: the im2col IS
			// the input layout, so quantize straight into the A-matrix.
			quantizeInput(a, x.Data(), st0.in)
		} else {
			xq := i8Buf(&s.xq, batch*g.inC*l)
			quantizeInput(xq, x.Data(), st0.in)
			im2colRowsI8(a, xq, batch, g.inC, l, lo, g.kernel, g.stride, g.pad, st0.in.Zero)
		}
	} else {
		a = i8Buf(&s.a, batch*st0.q.Cols)
		quantizeInput(a, x.Data(), st0.in)
	}
	int8QuantTimer.Observe(time.Since(tQ), batch)
	var gemmD, requantD time.Duration
	var out *tensor.Tensor32
	for i, st := range o.stages {
		p := &o.prep[i]
		last := i == len(o.stages)-1
		var next *qStage
		if !last {
			next = o.stages[i+1]
		}
		switch st.kind {
		case stageConv:
			g := st.g
			lo := g.outLen(l)
			m := batch * lo
			r1 := g.outC + 1 // + the synthetic row-sum column
			acc := i32Buf(&s.acc, m*r1)
			tG := time.Now()
			tensor.QGemmTransB(acc, a, st.q.panels(), m, g.inC*g.kernel, r1)
			tR := time.Now()
			gemmD += tR.Sub(tG)
			switch {
			case last:
				out = tensor.NewOf[float32](batch, g.outC, lo)
				requantConvHead(out.Data(), acc, p, st.relu, batch, lo, g.outC)
			case next.kind == stageConv && next.g.kernel == next.g.stride && next.g.pad == 0:
				g2 := next.g
				lo2 := g2.outLen(lo)
				a2 := i8Buf(&s.a2, batch*lo2*g2.inC*g2.kernel)
				requantConvToCols(a2, acc, p, st.relu, next.in, batch, lo, g.outC, g2.stride, lo2)
				a = a2
				s.a, s.a2 = s.a2, s.a
			case next.kind == stageDense:
				// The channel-major (b, outC, lo) write order IS the dense
				// row layout after the fused flatten.
				a2 := i8Buf(&s.a2, batch*g.outC*lo)
				requantConvFlat(a2, acc, p, st.relu, next.in, batch, lo, g.outC)
				a = a2
				s.a, s.a2 = s.a2, s.a
			default:
				nxt := i8Buf(&s.xq, batch*g.outC*lo)
				requantConvFlat(nxt, acc, p, st.relu, next.in, batch, lo, g.outC)
				g2 := next.g
				lo2 := g2.outLen(lo)
				kw2 := g2.inC * g2.kernel
				a2 := i8Buf(&s.a2, batch*lo2*kw2)
				im2colRowsI8(a2, nxt, batch, g2.inC, lo, lo2, g2.kernel, g2.stride, g2.pad, next.in.Zero)
				a = a2
				s.a, s.a2 = s.a2, s.a
			}
			requantD += time.Since(tR)
			l = lo
		default:
			f := st.q.Cols
			rows := st.q.Rows
			r1 := rows + 1
			acc := i32Buf(&s.acc, batch*r1)
			tG := time.Now()
			tensor.QGemmTransB(acc, a, st.q.panels(), batch, f, r1)
			tR := time.Now()
			gemmD += tR.Sub(tG)
			if last {
				out = tensor.NewOf[float32](batch, rows)
				requantRowsHead(out.Data(), acc, p, st.relu, batch, rows)
			} else {
				a2 := i8Buf(&s.a2, batch*rows)
				requantRowsMid(a2, acc, p, st.relu, next.in, batch, rows)
				a = a2
				s.a, s.a2 = s.a2, s.a
			}
			requantD += time.Since(tR)
		}
		if last && st.flatten {
			out = out.Reshape(batch, -1)
		}
	}
	int8GemmTimer.Observe(gemmD, batch)
	int8RequantTimer.Observe(requantD, batch)
	return out
}

// Compute-stage timers for the int8 lane, resolved once: forwardInt8
// records three Observes (4 atomic adds each) per batch, independent of
// batch size.
var (
	int8QuantTimer   = obs.ComputeStage("quantize", "int8")
	int8GemmTimer    = obs.ComputeStage("gemm", "int8")
	int8RequantTimer = obs.ComputeStage("requant", "int8")
)

// requantConvToCols turns a conv stage's int32 GEMM output
// (batch·lo, outC+1) directly into the NEXT conv stage's A-matrix: with
// kernel == stride == s2 and no padding, output value (b, oc, t) owns
// exactly one im2col slot — row b·lo2 + t/s2, column oc·s2 + t%s2 — so
// the requant write (bias, ReLU, zero-point offset fused) doubles as the
// im2col. Trailing positions the next conv drops (t ≥ lo2·s2) are never
// produced. For the stride-2 16-lane-aligned geometry (every VARADE
// trunk stage) the whole transform is one tensor.RequantPairs2 call —
// the SIMD-dispatched fused requant+interleave.
func requantConvToCols(cols []int8, acc []int32, p *qStagePrep, relu bool, next *ActQuant, batch, lo, outC, s2, lo2 int) {
	ld := outC + 1
	kw2 := outC * s2
	if s2 == 2 && outC%16 == 0 {
		if lo == 2*lo2 {
			// No dropped tail: all acc rows are consumed in order, so the
			// batch dimension merges into one pair run per shard.
			tensor.Parallel(batch, func(blo, bhi int) {
				pairs := (bhi - blo) * lo2
				clipped := tensor.RequantPairs2(cols[blo*lo2*kw2:], acc[blo*lo*ld:], ld, pairs, outC,
					p.zw, p.cw, p.m, p.c, p.zn, relu)
				next.noteClipped(clipped, pairs*2*outC)
			})
		} else {
			tensor.Parallel(batch, func(blo, bhi int) {
				clipped := 0
				for b := blo; b < bhi; b++ {
					clipped += tensor.RequantPairs2(cols[b*lo2*kw2:(b+1)*lo2*kw2], acc[b*lo*ld:], ld, lo2, outC,
						p.zw, p.cw, p.m, p.c, p.zn, relu)
				}
				next.noteClipped(clipped, (bhi-blo)*lo2*2*outC)
			})
		}
		return
	}
	zn := p.zn
	tensor.Parallel(batch, func(blo, bhi int) {
		clipped, total := 0, 0
		for b := blo; b < bhi; b++ {
			for t := 0; t < lo2*s2; t++ {
				row := acc[(b*lo+t)*ld : (b*lo+t)*ld+outC]
				rs := acc[(b*lo+t)*ld+outC]
				r2 := b*lo2 + t/s2
				dst := cols[r2*kw2 : (r2+1)*kw2]
				off := t % s2
				for oc, a := range row {
					corr := a - p.zw[oc]*rs + p.cw[oc]
					q, cl := tensor.QuantClamp(p.m[oc]*float32(corr) + p.c[oc])
					// A low-side clip under a fused ReLU is exact — the
					// float lane floors the value to 0 (= zn) too — so
					// only lossy saturations count.
					if cl && (!relu || q == 127) {
						clipped++
					}
					if relu && q < zn {
						q = zn
					}
					dst[oc*s2+off] = q
				}
				total += outC
			}
		}
		next.noteClipped(clipped, total)
	})
}

// requantConvFlat turns a conv stage's int32 GEMM output
// (batch·lo, outC+1) into channel-major int8 activations
// (batch, outC, lo), fusing bias, ReLU and the zero-point offset — the
// flattened dense rows a conv+flatten stage feeds, or the materialised
// tensor the standalone im2col fallback consumes.
func requantConvFlat(dst []int8, acc []int32, p *qStagePrep, relu bool, next *ActQuant, batch, lo, outC int) {
	zn := p.zn
	ld := outC + 1
	tensor.Parallel(batch, func(blo, bhi int) {
		clipped, total := 0, 0
		for b := blo; b < bhi; b++ {
			ob := dst[b*outC*lo : (b+1)*outC*lo]
			for t := 0; t < lo; t++ {
				row := acc[(b*lo+t)*ld : (b*lo+t)*ld+outC]
				rs := acc[(b*lo+t)*ld+outC]
				for oc, a := range row {
					corr := a - p.zw[oc]*rs + p.cw[oc]
					q, cl := tensor.QuantClamp(p.m[oc]*float32(corr) + p.c[oc])
					// See requantConvToCols on the ReLU clip rule.
					if cl && (!relu || q == 127) {
						clipped++
					}
					if relu && q < zn {
						q = zn
					}
					ob[oc*lo+t] = q
				}
				total += outC
			}
		}
		next.noteClipped(clipped, total)
	})
}

// requantConvHead dequantizes the final conv stage to float32,
// channel-major.
func requantConvHead(dst []float32, acc []int32, p *qStagePrep, relu bool, batch, lo, outC int) {
	ld := outC + 1
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ob := dst[b*outC*lo : (b+1)*outC*lo]
			for t := 0; t < lo; t++ {
				row := acc[(b*lo+t)*ld : (b*lo+t)*ld+outC]
				rs := acc[(b*lo+t)*ld+outC]
				for oc, a := range row {
					corr := a - p.zw[oc]*rs + p.cw[oc]
					y := p.m[oc]*float32(corr) + p.c[oc]
					if relu && y < 0 {
						y = 0
					}
					ob[oc*lo+t] = y
				}
			}
		}
	})
}

// requantRowsMid requantizes a dense stage's (batch, rows+1) int32
// output to the next stage's int8 domain.
func requantRowsMid(dst []int8, acc []int32, p *qStagePrep, relu bool, next *ActQuant, batch, rows int) {
	zn := p.zn
	ld := rows + 1
	tensor.Parallel(batch, func(blo, bhi int) {
		clipped := 0
		for i := blo; i < bhi; i++ {
			row := acc[i*ld : i*ld+rows]
			rs := acc[i*ld+rows]
			orow := dst[i*rows : (i+1)*rows]
			for r, a := range row {
				corr := a - p.zw[r]*rs + p.cw[r]
				q, cl := tensor.QuantClamp(p.m[r]*float32(corr) + p.c[r])
				// See requantConvToCols on the ReLU clip rule.
				if cl && (!relu || q == 127) {
					clipped++
				}
				if relu && q < zn {
					q = zn
				}
				orow[r] = q
			}
		}
		next.noteClipped(clipped, (bhi-blo)*rows)
	})
}

// requantRowsHead dequantizes the final dense stage to float32 rows.
func requantRowsHead(dst []float32, acc []int32, p *qStagePrep, relu bool, batch, rows int) {
	ld := rows + 1
	tensor.Parallel(batch, func(blo, bhi int) {
		for i := blo; i < bhi; i++ {
			row := acc[i*ld : i*ld+rows]
			rs := acc[i*ld+rows]
			orow := dst[i*rows : (i+1)*rows]
			for r, a := range row {
				corr := a - p.zw[r]*rs + p.cw[r]
				y := p.m[r]*float32(corr) + p.c[r]
				if relu && y < 0 {
					y = 0
				}
				orow[r] = y
			}
		}
	})
}

// compileQuantSegments groups the flattened layer list: maximal runs of
// {Conv1D, ReLU, Flatten, Dense} become opQuantSeg programs; everything
// else (residual blocks, transpose convolutions, LSTMs, standalone
// activations) compiles to its plain float32 op and breaks the segment.
func compileQuantSegments(net *InferenceNet[float32], cache QuantCache, acts *ActSet, layers []Layer) error {
	convIdx, denseIdx := 0, 0
	// stage returns the quantized stage of a GEMM layer, nil for any other.
	stage := func(l Layer) *qStage {
		switch v := l.(type) {
		case *Conv1D:
			st := &qStage{kind: stageConv, q: quantFor(cache, v.W, v.OutC, v.InC*v.Kernel), b: f32s(v.B), g: v.geom(),
				in: acts.next(fmt.Sprintf("conv%d.in", convIdx))}
			convIdx++
			return st
		case *Dense:
			st := &qStage{kind: stageDense, q: quantFor(cache, v.W, v.OutFeatures(), v.InFeatures()), b: f32s(v.B),
				in: acts.next(fmt.Sprintf("dense%d.in", denseIdx))}
			denseIdx++
			return st
		}
		return nil
	}
	for i := 0; i < len(layers); {
		probe := stage(layers[i])
		if probe == nil {
			if err := compileInto(net, layers[i]); err != nil {
				return err
			}
			i++
			continue
		}
		seg := &opQuantSeg{acts: acts}
		for probe != nil {
			i++
		fuse:
			for i < len(layers) {
				switch layers[i].(type) {
				case *ReLU:
					probe.relu = true
				case *Flatten:
					probe.flatten = true
				default:
					break fuse
				}
				i++
			}
			seg.stages = append(seg.stages, probe)
			probe = nil
			if i < len(layers) {
				probe = stage(layers[i])
			}
		}
		net.ops = append(net.ops, seg)
	}
	return nil
}

// flattenLayers expands Sequential containers so the segment grouping
// sees the true layer sequence. Residual blocks stay opaque units.
func flattenLayers(ls []Layer) []Layer {
	var out []Layer
	for _, l := range ls {
		if s, ok := l.(*Sequential); ok {
			out = append(out, flattenLayers(s.Layers)...)
		} else {
			out = append(out, l)
		}
	}
	return out
}
