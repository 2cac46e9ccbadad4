package nn

import (
	"fmt"

	"varade/internal/tensor"
)

// The 1-D convolutions are implemented as im2col/col2im plus GEMM: the
// receptive fields of ALL batch elements and output positions are unrolled
// into one (batch·positions, taps) column matrix in arena-backed scratch,
// and the whole convolution becomes a single matrix product through the
// optimized tensor.MatMul* kernels, which shard rows across the package
// worker pool. The unrolling, bias/permute and scatter passes are
// themselves batch-parallel. The forward arithmetic lives in the generic
// kernels of fwd.go (conv1dForward/convT1dForward), shared with the
// precision-polymorphic inference programs of infer.go.
//
// Per output element the tap-accumulation order is identical for every
// batch size, so batched forwards reproduce single-window forwards bit for
// bit — the property detect.ScoreSeriesBatched relies on.

// Conv1D is a 1-D convolution over (batch, channels, length) inputs.
// VARADE uses kernel=2 stride=2 pad=0 so the time dimension halves per
// layer (§3.1 of the paper); the implementation is general.
//
// Weight shape is (outC, inC, kernel); output length is
// (L + 2*pad - kernel)/stride + 1.
type Conv1D struct {
	W, B                *Param
	InC, OutC           int
	Kernel, Stride, Pad int
	in                  *tensor.Tensor
}

// NewConv1D returns a Conv1D with He-normal weights and zero bias.
func NewConv1D(inC, outC, kernel, stride, pad int, rng *tensor.RNG) *Conv1D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv1D geometry k=%d s=%d p=%d", kernel, stride, pad))
	}
	return &Conv1D{
		W:      newParam("conv1d.w", HeNormal(rng, outC, inC, kernel)),
		B:      newParam("conv1d.b", tensor.New(outC)),
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
	}
}

// geom returns the layer's shape description for the generic kernels.
func (c *Conv1D) geom() convGeom {
	return convGeom{inC: c.InC, outC: c.OutC, kernel: c.Kernel, stride: c.Stride, pad: c.Pad}
}

// OutLen returns the output length for an input of length l.
func (c *Conv1D) OutLen(l int) int {
	return (l+2*c.Pad-c.Kernel)/c.Stride + 1
}

// Forward computes the convolution as one GEMM:
// im2col(x)·Wᵀ + bias, permuted back to (batch, outC, lo).
func (c *Conv1D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv1D forward shape %v, want (batch,%d,L)", x.Shape(), c.InC))
	}
	c.in = x
	return conv1dForward(x, liveGemm(c.W.Value.Reshape(c.OutC, c.InC*c.Kernel)), c.B.Value, c.geom(), false)
}

// Backward accumulates weight/bias gradients and returns the input
// gradient: dW += dY₂ᵀ·cols, dcols = dY₂·W, dx = col2im(dcols), where dY₂
// is the output gradient permuted to (batch·lo, outC) rows.
func (c *Conv1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.in
	batch, l := x.Dim(0), x.Dim(2)
	lo := grad.Dim(2)
	dx := tensor.New(batch, c.InC, l)
	wmat := c.W.Value.Reshape(c.OutC, c.InC*c.Kernel)
	dwFlat := c.W.Grad.Reshape(c.OutC, c.InC*c.Kernel)
	ar := tensor.GetArena()
	defer tensor.PutArena(ar)
	// dY permuted to rows: dy2[b·lo+t, oc] = grad[b, oc, t]; bias gradient
	// is its column sum.
	dy2 := ar.Tensor(batch*lo, c.OutC)
	gd, dyd := grad.Data(), dy2.Data()
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			gb := gd[b*c.OutC*lo : (b+1)*c.OutC*lo]
			for t := 0; t < lo; t++ {
				row := dyd[(b*lo+t)*c.OutC : (b*lo+t+1)*c.OutC]
				for oc := range row {
					row[oc] = gb[oc*lo+t]
				}
			}
		}
	})
	dbd := c.B.Grad.Data()
	for r := 0; r < batch*lo; r++ {
		for oc, v := range dyd[r*c.OutC : (r+1)*c.OutC] {
			dbd[oc] += v
		}
	}
	cols := ar.Tensor(batch*lo, c.InC*c.Kernel)
	im2colRows(cols, x.Data(), batch, c.InC, l, lo, c.Kernel, c.Stride, c.Pad)
	tmpDW := ar.Tensor(c.OutC, c.InC*c.Kernel)
	tensor.MatMulTransAInto(tmpDW, dy2, cols)
	tensor.AddInPlace(dwFlat, tmpDW)
	dcols := cols // reuse: cols is fully consumed by the dW product above
	tensor.MatMulInto(dcols, dy2, wmat)
	col2imRowsAdd(dx.Data(), dcols, batch, c.InC, l, lo, c.Kernel, c.Stride, c.Pad)
	return dx
}

// Params returns the kernel weights and bias.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// ConvTranspose1D is the transpose (fractionally strided) convolution used
// by the autoencoder decoder to double the time dimension (kernel=2,
// stride=2 inverts the matching Conv1D geometry).
//
// For input length L the output length is (L-1)*stride + kernel - 2*pad.
type ConvTranspose1D struct {
	W, B                *Param // W shape (inC, outC, kernel)
	InC, OutC           int
	Kernel, Stride, Pad int
	in                  *tensor.Tensor
}

// NewConvTranspose1D returns a ConvTranspose1D with He-normal weights.
func NewConvTranspose1D(inC, outC, kernel, stride, pad int, rng *tensor.RNG) *ConvTranspose1D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid ConvTranspose1D geometry k=%d s=%d p=%d", kernel, stride, pad))
	}
	return &ConvTranspose1D{
		W:      newParam("convt1d.w", HeNormal(rng, inC, outC, kernel)),
		B:      newParam("convt1d.b", tensor.New(outC)),
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
	}
}

// geom returns the layer's shape description for the generic kernels.
func (c *ConvTranspose1D) geom() convGeom {
	return convGeom{inC: c.InC, outC: c.OutC, kernel: c.Kernel, stride: c.Stride, pad: c.Pad}
}

// OutLen returns the output length for an input of length l.
func (c *ConvTranspose1D) OutLen(l int) int {
	return (l-1)*c.Stride + c.Kernel - 2*c.Pad
}

// Forward computes cols = x₂·W (one GEMM over all positions), then
// scatters: out[b, oc, t·stride-pad+kk] += cols[b·l+t, oc·K+kk].
func (c *ConvTranspose1D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: ConvTranspose1D forward shape %v, want (batch,%d,L)", x.Shape(), c.InC))
	}
	c.in = x
	return convT1dForward(x, c.W.Value, c.B.Value, c.geom())
}

// Backward gathers dcols from the output gradient (the adjoint of the
// forward scatter), then dx₂ = dcols·Wᵀ and dW += x₂ᵀ·dcols.
func (c *ConvTranspose1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.in
	batch, l := x.Dim(0), x.Dim(2)
	lo := grad.Dim(2)
	dx := tensor.New(batch, c.InC, l)
	wmat := c.W.Value.Reshape(c.InC, c.OutC*c.Kernel)
	dwFlat := c.W.Grad.Reshape(c.InC, c.OutC*c.Kernel)
	ar := tensor.GetArena()
	defer tensor.PutArena(ar)
	// Gather dcols[b·l+t, oc·K+kk] = grad[b, oc, t·stride-pad+kk].
	kw := c.OutC * c.Kernel
	dcols := ar.Tensor(batch*l, kw)
	gd, dcd := grad.Data(), dcols.Data()
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			gb := gd[b*c.OutC*lo : (b+1)*c.OutC*lo]
			for t := 0; t < l; t++ {
				row := dcd[(b*l+t)*kw : (b*l+t+1)*kw]
				base := t*c.Stride - c.Pad
				for oc := 0; oc < c.OutC; oc++ {
					grow := gb[oc*lo : (oc+1)*lo]
					for kk := 0; kk < c.Kernel; kk++ {
						p := base + kk
						if p >= 0 && p < lo {
							row[oc*c.Kernel+kk] = grow[p]
						} else {
							row[oc*c.Kernel+kk] = 0
						}
					}
				}
			}
		}
	})
	dbd := c.B.Grad.Data()
	for b := 0; b < batch; b++ {
		gb := gd[b*c.OutC*lo : (b+1)*c.OutC*lo]
		for oc := 0; oc < c.OutC; oc++ {
			s := 0.0
			for _, gv := range gb[oc*lo : (oc+1)*lo] {
				s += gv
			}
			dbd[oc] += s
		}
	}
	x2 := ar.Tensor(batch*l, c.InC)
	chanToRows(x2, x.Data(), batch, c.InC, l)
	tmpDW := ar.Tensor(c.InC, kw)
	tensor.MatMulTransAInto(tmpDW, x2, dcols)
	tensor.AddInPlace(dwFlat, tmpDW)
	dx2 := x2 // reuse: x2 is fully consumed by the dW product above
	tensor.MatMulTransBInto(dx2, dcols, wmat)
	// Permute (b·l+t, ic) rows back to channel-major dx.
	dxd, d2 := dx.Data(), dx2.Data()
	tensor.Parallel(batch, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			dxb := dxd[b*c.InC*l : (b+1)*c.InC*l]
			for t := 0; t < l; t++ {
				row := d2[(b*l+t)*c.InC : (b*l+t+1)*c.InC]
				for ic, v := range row {
					dxb[ic*l+t] = v
				}
			}
		}
	})
	return dx
}

// Params returns the kernel weights and bias.
func (c *ConvTranspose1D) Params() []*Param { return []*Param{c.W, c.B} }
