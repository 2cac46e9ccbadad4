package tensor

import "fmt"

// BiasReLU sets x[i] = max(x[i]+b[i], +0) for every i in x: the bias and
// the rectifier of one output row in a single pass. A NaN sum and a zero of
// either sign become +0, so the result never depends on a branch. b must
// hold at least len(x) values. With x zeroed it is ReLU of b.
//
// The pass is dispatched (dispatch.go): a portable Go loop, or AVX2 asm
// (VADD, then VMAX against +0) when the CPU has it. Both round the sum
// once and select the same way, so every implementation is bit-identical.
func BiasReLU[T Float](x, b []T) {
	if len(b) < len(x) {
		panic(fmt.Sprintf("tensor: BiasReLU of %d values with %d biases", len(x), len(b)))
	}
	switch xs := any(x).(type) {
	case []float32:
		biasReLUKern32(xs, any(b).([]float32))
	case []float64:
		biasReLUKern64(xs, any(b).([]float64))
	}
}

// biasReLUGeneric is the portable BiasReLU body.
func biasReLUGeneric[T Float](x, b []T) {
	b = b[:len(x)]
	for i, v := range x {
		v += b[i]
		if !(v > 0) { // NaN and −0 become +0, as VMAX against +0 does
			v = 0
		}
		x[i] = v
	}
}
