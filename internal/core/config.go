// Package core implements VARADE, the paper's contribution: a light
// variational autoregressive anomaly detector. A cascade of kernel-2
// stride-2 1-D convolutions halves the time dimension at every layer
// (Fig. 1); a final linear projection emits the mean and log-variance of a
// Gaussian over the next time step. Training maximises the ELBO
// (Gaussian NLL + λ·KL, Eqs. 5–7) and at inference the predicted variance
// alone is the anomaly score (§3.2).
package core

import "fmt"

// Inference precisions. Training always runs in float64; Precision selects
// the numeric type the fitted model scores with. Float32 is the edge
// default trade-off (half the memory bandwidth, scores within float32
// rounding of the float64 oracle); int8 additionally quantizes Dense/Conv
// weights per output channel and the activations between them per stage,
// and accumulates in int32.
const (
	// PrecisionFloat64 scores with the float64 training weights — the
	// bit-exactness oracle path and the meaning of an empty Precision.
	PrecisionFloat64 = "float64"
	// PrecisionFloat32 compiles the weights to float32 and scores with the
	// float32 instantiation of the same kernels.
	PrecisionFloat32 = "float32"
	// PrecisionInt8 serves per-channel affine int8 Dense/Conv weights
	// against int8 activations with int32 accumulation (nn.opQuantSeg).
	PrecisionInt8 = "int8"
)

// ValidPrecision reports whether p names a supported inference precision
// ("" counts as float64).
func ValidPrecision(p string) bool {
	switch p {
	case "", PrecisionFloat64, PrecisionFloat32, PrecisionInt8:
		return true
	}
	return false
}

// Config describes a VARADE architecture.
type Config struct {
	// Window is the input context length T. It must be a power of two of at
	// least 4; the network then has log2(T)−1 conv layers, ending with a
	// time dimension of 2 (the paper's T=512 yields 8 layers).
	Window int
	// Channels is the number of input (and forecast) variables C.
	Channels int
	// BaseMaps is the feature-map count of the first conv layer; it doubles
	// every two layers (the paper uses 128, reaching 1024 at layer 8).
	BaseMaps int
	// KLWeight is λ in L = L_recon + λ·D_KL (Eq. 7).
	KLWeight float64
	// Seed initialises the weight RNG.
	Seed uint64
	// Precision selects the numeric type inference runs in: "" or
	// "float64" (the training/oracle path), "float32" (the edge fast
	// path) or "int8" (quantized weights and activations, int32
	// accumulation). Training always runs in float64 regardless. Omitted
	// from saved config JSON when empty, so default-precision model files
	// stay byte-identical to the pre-precision format.
	Precision string `json:",omitempty"`
}

// EffectivePrecision resolves the empty default to float64.
func (c Config) EffectivePrecision() string {
	if c.Precision == "" {
		return PrecisionFloat64
	}
	return c.Precision
}

// PaperConfig returns the exact architecture evaluated in the paper:
// T=512, 8 conv layers, feature maps 128 doubling to 1024.
func PaperConfig(channels int) Config {
	return Config{Window: 512, Channels: channels, BaseMaps: 128, KLWeight: 0.1, Seed: 1}
}

// EdgeConfig returns a reduced architecture (T=8, maps 16) that trains in
// seconds on a single CPU core while preserving the paper's topology
// (layers = log2 T − 1, feature maps doubling every two layers). The
// short context is deliberate: at the simulator's 10 Hz stream rate the
// collisions last 5–20 samples, and the window ablation (cmd/varade-bench
// -exp ablation-window) shows detection accuracy degrading monotonically
// as the window grows past the event scale — a long context dilutes the
// variance response and keeps flagging the post-event tail. The paper's
// T=512 covers 2.56 s of its 200 Hz stream, i.e. also roughly the event
// scale.
func EdgeConfig(channels int) Config {
	return Config{Window: 8, Channels: channels, BaseMaps: 16, KLWeight: 0.1, Seed: 1}
}

// TinyConfig returns the smallest legal architecture (T=8), for unit tests.
func TinyConfig(channels int) Config {
	return Config{Window: 8, Channels: channels, BaseMaps: 4, KLWeight: 0.1, Seed: 1}
}

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("core: Channels must be positive, got %d", c.Channels)
	}
	if c.BaseMaps <= 0 {
		return fmt.Errorf("core: BaseMaps must be positive, got %d", c.BaseMaps)
	}
	if c.KLWeight < 0 {
		return fmt.Errorf("core: KLWeight must be non-negative, got %g", c.KLWeight)
	}
	if c.Window < 4 || c.Window&(c.Window-1) != 0 {
		return fmt.Errorf("core: Window must be a power of two ≥ 4, got %d", c.Window)
	}
	if !ValidPrecision(c.Precision) {
		return fmt.Errorf("core: unknown precision %q (want float64, float32 or int8)", c.Precision)
	}
	return nil
}

// NumLayers returns the number of conv layers: log2(Window) − 1.
func (c Config) NumLayers() int {
	n := 0
	for w := c.Window; w > 2; w /= 2 {
		n++
	}
	return n
}

// LayerMaps returns the feature-map count of each conv layer: BaseMaps
// doubled every two layers, e.g. 128,128,256,256,… for the paper config.
func (c Config) LayerMaps() []int {
	n := c.NumLayers()
	maps := make([]int, n)
	for i := range maps {
		maps[i] = c.BaseMaps << (i / 2)
	}
	return maps
}
