package nn

import (
	"fmt"
	"math"
	"time"

	"varade/internal/obs"
	"varade/internal/tensor"
)

// Generic forward kernels. Every layer's inference arithmetic lives here,
// parameterised over the tensor element type: the float64 training layers
// (Dense, Conv1D, ConvTranspose1D, LSTM) delegate their Forward to these
// kernels, and the precision-polymorphic inference programs in infer.go
// instantiate the same code at float32. Because both paths share one
// implementation with one operation ordering, the float64 instantiation is
// bit-identical to the historical concrete layers, and the float32 path
// differs only by element rounding — never by algorithm.

// floatStages holds the pack/gemm compute-stage timers for one float
// precision, resolved once per instantiation via precTimers.
type floatStages struct {
	pack *obs.StageTimer
	gemm *obs.StageTimer
}

var (
	f32Stages = floatStages{pack: obs.ComputeStage("pack", "f32"), gemm: obs.ComputeStage("gemm", "f32")}
	f64Stages = floatStages{pack: obs.ComputeStage("pack", "f64"), gemm: obs.ComputeStage("gemm", "f64")}
)

// precTimers returns the stage timers for T's precision.
func precTimers[T tensor.Float]() floatStages {
	var z T
	if tensor.SizeOf(z) == 4 {
		return f32Stages
	}
	return f64Stages
}

// sigmoidT is the logistic function evaluated in float64 and rounded to T.
func sigmoidT[T tensor.Float](x T) T {
	return T(1 / (1 + math.Exp(-float64(x))))
}

// tanhT is the hyperbolic tangent evaluated in float64 and rounded to T.
func tanhT[T tensor.Float](x T) T { return T(math.Tanh(float64(x))) }

// weightGemm computes dst = a·Wᵀ for one layer's (out, in) weight matrix.
// The Dense and Conv1D kernels below take the product as a parameter
// because its best form depends on who owns W: training layers multiply
// against their live row-major weights, packed per call since every
// optimizer step moves them (liveGemm); compiled inference ops multiply
// against a tensor.PackedB prepared once at compile time (packedGemm).
// The arithmetic — and at float64 every bit of the result — is the same.
type weightGemm[T tensor.Float] func(dst, a *tensor.Dense[T])

func liveGemm[T tensor.Float](w *tensor.Dense[T]) weightGemm[T] {
	return func(dst, a *tensor.Dense[T]) { tensor.MatMulTransBInto(dst, a, w) }
}

func packedGemm[T tensor.Float](pw *tensor.PackedB[T]) weightGemm[T] {
	return func(dst, a *tensor.Dense[T]) { tensor.MatMulPackedInto(dst, a, pw) }
}

// denseForward computes x·Wᵀ + b for x (batch, in), W (out, in) behind
// gemm and bias (out).
func denseForward[T tensor.Float](x *tensor.Dense[T], gemm weightGemm[T], bias *tensor.Dense[T]) *tensor.Dense[T] {
	out := tensor.NewOf[T](x.Dim(0), bias.Len())
	tG := time.Now()
	gemm(out, x)
	precTimers[T]().gemm.Observe(time.Since(tG), x.Dim(0))
	batch, of := out.Dim(0), out.Dim(1)
	od, bd := out.Data(), bias.Data()
	addBias := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := od[i*of : (i+1)*of]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	if batch*of < 16384 {
		addBias(0, batch)
	} else {
		tensor.Parallel(batch, addBias)
	}
	return out
}

// convGeom is the shape of a 1-D (transpose) convolution.
type convGeom struct {
	inC, outC           int
	kernel, stride, pad int
}

// outLen returns a Conv1D's output length for input length l.
func (g convGeom) outLen(l int) int { return (l+2*g.pad-g.kernel)/g.stride + 1 }

// outLenT returns a ConvTranspose1D's output length for input length l.
func (g convGeom) outLenT(l int) int { return (l-1)*g.stride + g.kernel - 2*g.pad }

// im2colRows unrolls a channel-major batch xd (batch, inC, l) into cols, a
// (batch·lo, inC·kernel) matrix whose row b·lo+t holds the taps of output
// position (b, t): cols[b·lo+t, ic·K+kk] = x[b, ic, t·stride-pad+kk].
// Out-of-range taps are written as zero.
func im2colRows[T tensor.Float](cols *tensor.Dense[T], xd []T, batch, inC, l, lo, kernel, stride, pad int) {
	cd := cols.Data()
	kw := inC * kernel
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			xb := xd[b*inC*l : (b+1)*inC*l]
			for t := 0; t < lo; t++ {
				row := cd[(b*lo+t)*kw : (b*lo+t+1)*kw]
				base := t*stride - pad
				for ic := 0; ic < inC; ic++ {
					xrow := xb[ic*l : (ic+1)*l]
					for kk := 0; kk < kernel; kk++ {
						p := base + kk
						if p >= 0 && p < l {
							row[ic*kernel+kk] = xrow[p]
						} else {
							row[ic*kernel+kk] = 0
						}
					}
				}
			}
		}
	})
}

// col2imRowsAdd scatters cols (batch·lo, inC·kernel) back into the
// channel-major batch dxd (batch, inC, l) — the adjoint of im2colRows.
func col2imRowsAdd[T tensor.Float](dxd []T, cols *tensor.Dense[T], batch, inC, l, lo, kernel, stride, pad int) {
	cd := cols.Data()
	kw := inC * kernel
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			dxb := dxd[b*inC*l : (b+1)*inC*l]
			for t := 0; t < lo; t++ {
				row := cd[(b*lo+t)*kw : (b*lo+t+1)*kw]
				base := t*stride - pad
				for ic := 0; ic < inC; ic++ {
					dxrow := dxb[ic*l : (ic+1)*l]
					for kk := 0; kk < kernel; kk++ {
						p := base + kk
						if p >= 0 && p < l {
							dxrow[p] += row[ic*kernel+kk]
						}
					}
				}
			}
		}
	})
}

// chanToRows permutes a channel-major batch (batch, ch, l) into row-major
// position rows (batch·l, ch).
func chanToRows[T tensor.Float](dst *tensor.Dense[T], xd []T, batch, ch, l int) {
	dd := dst.Data()
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			xb := xd[b*ch*l : (b+1)*ch*l]
			for t := 0; t < l; t++ {
				row := dd[(b*l+t)*ch : (b*l+t+1)*ch]
				for ic := 0; ic < ch; ic++ {
					row[ic] = xb[ic*l+t]
				}
			}
		}
	})
}

// conv1dForward computes a Conv1D over channel-major input x (batch, inC,
// L) as one GEMM: im2col(x)·Wᵀ + bias, permuted back to (batch, outC, lo).
// gemm multiplies by the (outC, inC·kernel) weight matrix.
func conv1dForward[T tensor.Float](x *tensor.Dense[T], gemm weightGemm[T], bias *tensor.Dense[T], g convGeom) *tensor.Dense[T] {
	batch, l := x.Dim(0), x.Dim(2)
	lo := g.outLen(l)
	if lo <= 0 {
		panic(fmt.Sprintf("nn: Conv1D input length %d too short for k=%d s=%d p=%d", l, g.kernel, g.stride, g.pad))
	}
	out := tensor.NewOf[T](batch, g.outC, lo)
	ar := tensor.GetArenaOf[T]()
	defer tensor.PutArena(ar)
	st := precTimers[T]()
	cols := ar.Tensor(batch*lo, g.inC*g.kernel)
	tP := time.Now()
	im2colRows(cols, x.Data(), batch, g.inC, l, lo, g.kernel, g.stride, g.pad)
	tG := time.Now()
	st.pack.Observe(tG.Sub(tP), batch)
	prod := ar.Tensor(batch*lo, g.outC)
	gemm(prod, cols)
	st.gemm.Observe(time.Since(tG), batch)
	// Permute (b·lo+t, oc) → (b, oc, t), adding the bias on the way.
	pd, bd, od := prod.Data(), bias.Data(), out.Data()
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ob := od[b*g.outC*lo : (b+1)*g.outC*lo]
			for t := 0; t < lo; t++ {
				prow := pd[(b*lo+t)*g.outC : (b*lo+t+1)*g.outC]
				for oc, v := range prow {
					ob[oc*lo+t] = v + bd[oc]
				}
			}
		}
	})
	return out
}

// convT1dForward computes a ConvTranspose1D over channel-major input x
// (batch, inC, L): cols = x₂·W (one GEMM over all positions), then
// scatter-add into the upsampled output. w is (inC, outC, kernel).
func convT1dForward[T tensor.Float](x, w, bias *tensor.Dense[T], g convGeom) *tensor.Dense[T] {
	batch, l := x.Dim(0), x.Dim(2)
	lo := g.outLenT(l)
	if lo <= 0 {
		panic(fmt.Sprintf("nn: ConvTranspose1D input length %d invalid for k=%d s=%d p=%d", l, g.kernel, g.stride, g.pad))
	}
	out := tensor.NewOf[T](batch, g.outC, lo)
	wmat := w.Reshape(g.inC, g.outC*g.kernel)
	ar := tensor.GetArenaOf[T]()
	defer tensor.PutArena(ar)
	x2 := ar.Tensor(batch*l, g.inC)
	chanToRows(x2, x.Data(), batch, g.inC, l)
	cols := ar.Tensor(batch*l, g.outC*g.kernel)
	tensor.MatMulInto(cols, x2, wmat)
	cd, bd, od := cols.Data(), bias.Data(), out.Data()
	kw := g.outC * g.kernel
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ob := od[b*g.outC*lo : (b+1)*g.outC*lo]
			for oc := 0; oc < g.outC; oc++ {
				bv := bd[oc]
				orow := ob[oc*lo : (oc+1)*lo]
				for t := range orow {
					orow[t] = bv
				}
			}
			for t := 0; t < l; t++ {
				row := cd[(b*l+t)*kw : (b*l+t+1)*kw]
				base := t*g.stride - g.pad
				for oc := 0; oc < g.outC; oc++ {
					orow := ob[oc*lo : (oc+1)*lo]
					for kk := 0; kk < g.kernel; kk++ {
						p := base + kk
						if p >= 0 && p < lo {
							orow[p] += row[oc*g.kernel+kk]
						}
					}
				}
			}
		}
	})
	return out
}

// lstmState holds the per-step intermediates an LSTM forward produces,
// recorded for backpropagation through time when requested.
type lstmState[T tensor.Float] struct {
	xs              []*tensor.Dense[T] // input at each step (batch, in)
	hs, cs          []*tensor.Dense[T] // states after each step; index 0 is the initial state
	gi, gf, gg, go_ []*tensor.Dense[T]
	tanhC           []*tensor.Dense[T]
	batch, steps    int
}

// lstmForward runs the LSTM recurrence over x (batch, T, in) with weights
// wx (4h, in), wh (4h, hidden) and bias (4h), gate order (input, forget,
// cell candidate, output). When st is non-nil every per-step intermediate
// is recorded there for BPTT; inference passes nil. When returnSeq is true
// the output is (batch, T, hidden), otherwise the final hidden state
// (batch, hidden).
func lstmForward[T tensor.Float](x, wx, wh, bias *tensor.Dense[T], in, hidden int, returnSeq bool, st *lstmState[T]) *tensor.Dense[T] {
	batch, steps := x.Dim(0), x.Dim(1)
	h := hidden
	if st != nil {
		st.batch, st.steps = batch, steps
		st.xs = make([]*tensor.Dense[T], steps)
		st.hs = make([]*tensor.Dense[T], steps+1)
		st.cs = make([]*tensor.Dense[T], steps+1)
		st.gi = make([]*tensor.Dense[T], steps)
		st.gf = make([]*tensor.Dense[T], steps)
		st.gg = make([]*tensor.Dense[T], steps)
		st.go_ = make([]*tensor.Dense[T], steps)
		st.tanhC = make([]*tensor.Dense[T], steps)
	}
	hprev := tensor.NewOf[T](batch, h)
	cprevT := tensor.NewOf[T](batch, h)
	if st != nil {
		st.hs[0], st.cs[0] = hprev, cprevT
	}

	var seq *tensor.Dense[T]
	if returnSeq {
		seq = tensor.NewOf[T](batch, steps, h)
	}
	bd := bias.Data()
	for t := 0; t < steps; t++ {
		// Gather x_t as a (batch, in) matrix.
		xt := tensor.NewOf[T](batch, in)
		xd, sd := xt.Data(), x.Data()
		for b := 0; b < batch; b++ {
			copy(xd[b*in:(b+1)*in], sd[(b*steps+t)*in:(b*steps+t+1)*in])
		}
		if st != nil {
			st.xs[t] = xt
		}

		pre := tensor.MatMulTransB(xt, wx)
		tensor.AddInPlace(pre, tensor.MatMulTransB(hprev, wh))
		pd := pre.Data()
		gi := tensor.NewOf[T](batch, h)
		gf := tensor.NewOf[T](batch, h)
		gg := tensor.NewOf[T](batch, h)
		gor := tensor.NewOf[T](batch, h)
		ct := tensor.NewOf[T](batch, h)
		ht := tensor.NewOf[T](batch, h)
		tc := tensor.NewOf[T](batch, h)
		gid, gfd, ggd, god := gi.Data(), gf.Data(), gg.Data(), gor.Data()
		ctd, htd, tcd := ct.Data(), ht.Data(), tc.Data()
		cprev := cprevT.Data()
		// The gate nonlinearities are independent across batch rows, so
		// shard them over the tensor worker pool when the batch is big
		// enough to amortise the handoff.
		gates := func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				row := pd[b*4*h : (b+1)*4*h]
				for j := 0; j < h; j++ {
					i := sigmoidT(row[j] + bd[j])
					f := sigmoidT(row[h+j] + bd[h+j])
					g := tanhT(row[2*h+j] + bd[2*h+j])
					o := sigmoidT(row[3*h+j] + bd[3*h+j])
					c := f*cprev[b*h+j] + i*g
					th := tanhT(c)
					gid[b*h+j], gfd[b*h+j], ggd[b*h+j], god[b*h+j] = i, f, g, o
					ctd[b*h+j] = c
					tcd[b*h+j] = th
					htd[b*h+j] = o * th
				}
			}
		}
		if batch*h < 4096 {
			gates(0, batch)
		} else {
			tensor.Parallel(batch, gates)
		}
		if st != nil {
			st.gi[t], st.gf[t], st.gg[t], st.go_[t] = gi, gf, gg, gor
			st.cs[t+1], st.hs[t+1], st.tanhC[t] = ct, ht, tc
		}
		hprev, cprevT = ht, ct
		if returnSeq {
			qd := seq.Data()
			for b := 0; b < batch; b++ {
				copy(qd[(b*steps+t)*h:(b*steps+t+1)*h], htd[b*h:(b+1)*h])
			}
		}
	}
	if returnSeq {
		return seq
	}
	return hprev.Clone()
}
