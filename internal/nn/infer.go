package nn

import (
	"fmt"

	"varade/internal/tensor"
)

// Precision-polymorphic inference programs. A trained float64 layer stack
// is compiled into an InferenceNet[T]: a flat list of stateless ops whose
// weights were converted to T once, up front. The ops reuse the generic
// forward kernels of fwd.go, so an InferenceNet[float64] reproduces the
// training layers bit for bit, while InferenceNet[float32] runs the same
// algorithm at half the memory bandwidth. Dense and Conv1D weights are
// constants here, so compilation also prepares them as the GEMM engine's
// right-hand operand (tensor.PackTransB): packed once into the engine's
// panel layout instead of on every call, and — for a matrix large enough
// to run the packed engine at every batch size — held in that layout
// only. CompileQuantized is the int8 form of the same compile: Dense/Conv1D
// runs become true-int8 segments (qseg.go: int8 activations, int32
// accumulation, panels packed once likewise) whose activation scales
// ActSet.Calibrate observes through the float32 program of the same
// layers. A program that is a kernel = stride cascade — float, or int8 once
// calibrated — can also be restated over the series (Stream, stream.go),
// for callers that score consecutive windows.
//
// Unlike training layers, ops cache nothing and never write their
// weights, so a compiled net is safe for concurrent Forward calls.

// InferOp is one step of a compiled inference program.
type InferOp[T tensor.Float] interface {
	Apply(x *tensor.Dense[T]) *tensor.Dense[T]
}

// InferenceNet is a compiled sequence of inference ops at precision T.
type InferenceNet[T tensor.Float] struct {
	ops []InferOp[T]
}

// Forward runs the program on x and returns the final activation.
func (n *InferenceNet[T]) Forward(x *tensor.Dense[T]) *tensor.Dense[T] {
	for _, op := range n.ops {
		x = op.Apply(x)
	}
	return x
}

// NumOps returns the number of compiled ops.
func (n *InferenceNet[T]) NumOps() int { return len(n.ops) }

// AppendDense appends a Dense op with explicit weights — used by callers
// that specialise a projection for scoring (e.g. keeping only the
// log-variance rows of VARADE's head, since §3.2 discards the mean).
//
// The net takes ownership of w and b: the caller must not modify them
// afterwards.
func (n *InferenceNet[T]) AppendDense(w, b *tensor.Dense[T]) {
	n.ops = append(n.ops, opDense[T]{w: tensor.PackTransB(w), b: b})
}

// AppendDenseQuant appends an int8 Dense op with explicit quantized
// weights to a CompileQuantized program. The op joins the program's
// trailing quantized segment (or starts one), registering the next
// activation entry of acts in compile order, so a specialised head —
// VARADE's log-variance projection — runs inside the int8 lane instead of
// forcing a dequantize/requantize round trip at the segment boundary.
func AppendDenseQuant(n *InferenceNet[float32], acts *ActSet, q *QuantTensor, b []float32) {
	st := &qStage{kind: stageDense, q: q, b: b, in: acts.next("head.in")}
	if len(n.ops) > 0 {
		if seg, ok := n.ops[len(n.ops)-1].(*opQuantSeg); ok && !seg.ready.Load() {
			seg.stages = append(seg.stages, st)
			return
		}
	}
	n.ops = append(n.ops, &opQuantSeg{acts: acts, stages: []*qStage{st}})
}

// WeightBytes returns the total byte size of the program's weights — the
// model's precision-dependent memory footprint: logical elements, one
// copy each, without the panel layout's tile padding or the rows a small
// matrix keeps beside its panels.
func (n *InferenceNet[T]) WeightBytes() int {
	total := 0
	for _, op := range n.ops {
		if s, ok := op.(interface{ weightBytes() int }); ok {
			total += s.weightBytes()
		}
	}
	return total
}

// packedBytes is the logical byte size of a prepared weight matrix and
// its bias.
func packedBytes[T tensor.Float](w *tensor.PackedB[T], b *tensor.Dense[T]) int {
	var z T
	return (w.Rows()*w.Cols() + b.Len()) * int(tensor.SizeOf(z))
}

type opDense[T tensor.Float] struct {
	w *tensor.PackedB[T] // (out, in)
	b *tensor.Dense[T]
}

func (o opDense[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return denseForward(x, packedGemm(o.w), o.b)
}

func (o opDense[T]) weightBytes() int { return packedBytes(o.w, o.b) }

type opConv1D[T tensor.Float] struct {
	w *tensor.PackedB[T] // (outC, inC·kernel)
	b *tensor.Dense[T]
	g convGeom
}

func newConv1DOp[T tensor.Float](c *Conv1D) opConv1D[T] {
	w := cvt[T](c.W).Reshape(c.OutC, c.InC*c.Kernel)
	return opConv1D[T]{w: tensor.PackTransB(w), b: cvt[T](c.B), g: c.geom()}
}

func (o opConv1D[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return conv1dForward(x, packedGemm(o.w), o.b, o.g)
}

func (o opConv1D[T]) weightBytes() int { return packedBytes(o.w, o.b) }

type opConvT1D[T tensor.Float] struct {
	w, b *tensor.Dense[T]
	g    convGeom
}

func (o opConvT1D[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return convT1dForward(x, o.w, o.b, o.g)
}

func (o opConvT1D[T]) weightBytes() int {
	var z T
	return (o.w.Len() + o.b.Len()) * int(tensor.SizeOf(z))
}

type opLSTM[T tensor.Float] struct {
	wx, wh, b  *tensor.Dense[T]
	in, hidden int
	returnSeq  bool
}

func (o opLSTM[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return lstmForward(x, o.wx, o.wh, o.b, o.in, o.hidden, o.returnSeq, nil)
}

func (o opLSTM[T]) weightBytes() int {
	var z T
	return (o.wx.Len() + o.wh.Len() + o.b.Len()) * int(tensor.SizeOf(z))
}

type opReLU[T tensor.Float] struct{}

func (opReLU[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	out := tensor.NewOf[T](x.Shape()...)
	od := out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			od[i] = v
		}
	}
	return out
}

type opTanh[T tensor.Float] struct{}

func (opTanh[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return tensor.Apply(x, tanhT[T])
}

type opSigmoid[T tensor.Float] struct{}

func (opSigmoid[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return tensor.Apply(x, sigmoidT[T])
}

type opFlatten[T tensor.Float] struct{}

func (opFlatten[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	return x.Reshape(x.Dim(0), -1)
}

// opResidual runs a compiled branch and adds the (possibly projected)
// shortcut, mirroring ResBlock1D.
type opResidual[T tensor.Float] struct {
	branch *InferenceNet[T]
	proj   *opConv1D[T] // nil for identity shortcut
}

func (o opResidual[T]) Apply(x *tensor.Dense[T]) *tensor.Dense[T] {
	y := o.branch.Forward(x)
	if o.proj != nil {
		return tensor.Add(y, o.proj.Apply(x))
	}
	return tensor.Add(y, x)
}

func (o opResidual[T]) weightBytes() int {
	total := o.branch.WeightBytes()
	if o.proj != nil {
		total += o.proj.weightBytes()
	}
	return total
}

// cvt converts a float64 parameter tensor to precision T.
func cvt[T tensor.Float](p *Param) *tensor.Dense[T] {
	return tensor.Convert[T](p.Value)
}

func f32s(p *Param) []float32 {
	out := make([]float32, p.Value.Len())
	tensor.ConvertSlice(out, p.Value.Data())
	return out
}

// Compile builds an InferenceNet[T] from trained float64 layers,
// converting every weight to T once. Layer order and arithmetic are
// preserved exactly; Sequential containers are flattened.
func Compile[T tensor.Float](layers ...Layer) (*InferenceNet[T], error) {
	net := &InferenceNet[T]{}
	for _, l := range layers {
		if err := compileInto(net, l); err != nil {
			return nil, err
		}
	}
	return net, nil
}

func compileInto[T tensor.Float](net *InferenceNet[T], l Layer) error {
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.Layers {
			if err := compileInto(net, inner); err != nil {
				return err
			}
		}
	case *Dense:
		net.AppendDense(cvt[T](v.W), cvt[T](v.B))
	case *Conv1D:
		net.ops = append(net.ops, newConv1DOp[T](v))
	case *ConvTranspose1D:
		net.ops = append(net.ops, opConvT1D[T]{w: cvt[T](v.W), b: cvt[T](v.B), g: v.geom()})
	case *LSTM:
		net.ops = append(net.ops, opLSTM[T]{
			wx: cvt[T](v.Wx), wh: cvt[T](v.Wh), b: cvt[T](v.B),
			in: v.In, hidden: v.Hidden, returnSeq: v.ReturnSequences,
		})
	case *ResBlock1D:
		op := opResidual[T]{branch: &InferenceNet[T]{}}
		for _, inner := range []Layer{v.relu1, v.conv1, v.relu2, v.conv2} {
			if err := compileInto(op.branch, inner); err != nil {
				return err
			}
		}
		if v.proj != nil {
			proj := newConv1DOp[T](v.proj)
			op.proj = &proj
		}
		net.ops = append(net.ops, op)
	case *ReLU:
		net.ops = append(net.ops, opReLU[T]{})
	case *Tanh:
		net.ops = append(net.ops, opTanh[T]{})
	case *Sigmoid:
		net.ops = append(net.ops, opSigmoid[T]{})
	case *Flatten:
		net.ops = append(net.ops, opFlatten[T]{})
	default:
		return fmt.Errorf("nn: cannot compile layer type %T for inference", l)
	}
	return nil
}

// QuantCache maps weight parameters to their int8 quantization. Passing a
// cache into CompileQuantized reuses existing entries (so models loaded
// from an int8 file serve the exact stored weights) and records fresh
// quantizations for parameters not yet present (so a subsequent Save
// persists exactly what is being served).
type QuantCache map[*Param]*QuantTensor

// CompileQuantized builds the int8 inference program: maximal
// {Conv1D, ReLU, Flatten, Dense} runs become true-int8 segments
// (opQuantSeg) whose weights are the cache's per-channel int8 blocks,
// whose inter-stage activations are int8 and whose GEMMs accumulate in
// int32 through the tensor qGEMM engine. Every other layer (residual
// blocks, transpose convolutions, LSTMs, standalone activations) compiles
// to its plain float32 op. Each segment stage registers one entry of acts,
// in deterministic compile order: a set restored from a container serves
// its stored scales, an empty one must be calibrated (ActSet.Calibrate)
// before the program first runs.
func CompileQuantized(cache QuantCache, acts *ActSet, layers ...Layer) (*InferenceNet[float32], error) {
	if cache == nil {
		cache = make(QuantCache)
	}
	net := &InferenceNet[float32]{}
	acts.resetCursor()
	return net, compileQuantSegments(net, cache, acts, flattenLayers(layers))
}

func quantFor(cache QuantCache, p *Param, rows, cols int) *QuantTensor {
	if q, ok := cache[p]; ok {
		return q
	}
	q := QuantizeRows(p.Value, rows, cols)
	cache[p] = q
	return q
}
