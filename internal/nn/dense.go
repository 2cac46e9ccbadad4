package nn

import (
	"fmt"

	"varade/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b, with x of shape
// (batch, in) and y of shape (batch, out). W is stored as (out, in).
type Dense struct {
	W, B *Param
	in   *tensor.Tensor // cached input for the backward pass
}

// NewDense returns a Dense layer with He-normal weights and zero bias.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		W: newParam("dense.w", HeNormal(rng, out, in)),
		B: newParam("dense.b", tensor.New(out)),
	}
}

// InFeatures returns the input width.
func (d *Dense) InFeatures() int { return d.W.Value.Dim(1) }

// OutFeatures returns the output width.
func (d *Dense) OutFeatures() int { return d.W.Value.Dim(0) }

// Forward computes x·Wᵀ + b through the generic denseForward kernel (the
// same code the float32 inference programs instantiate).
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.InFeatures() {
		panic(fmt.Sprintf("nn: Dense forward shape %v, want (batch,%d)", x.Shape(), d.InFeatures()))
	}
	d.in = x
	return denseForward(x, liveGemm(d.W.Value), d.B.Value, false)
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad rows, and returns
// dX = grad·W.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.AddInPlace(d.W.Grad, tensor.MatMulTransA(grad, d.in))
	batch, of := grad.Dim(0), grad.Dim(1)
	gd, bg := grad.Data(), d.B.Grad.Data()
	for i := 0; i < batch; i++ {
		row := gd[i*of : (i+1)*of]
		for j, v := range row {
			bg[j] += v
		}
	}
	return tensor.MatMul(grad, d.W.Value)
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
