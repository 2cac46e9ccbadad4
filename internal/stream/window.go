// Package stream implements the real-time side of the case study (Fig. 2):
// a ring-buffer window assembler, a scoring runner that couples any
// detect.Detector to a live sample feed, an in-process sensor bus, a TCP
// line-protocol transport standing in for the testbed's MQTT-over-
// Ethernet link, and the length-prefixed binary framing the fleet server
// multiplexes device sessions over.
package stream

import (
	"fmt"

	"varade/internal/tensor"
)

// WindowBuffer assembles fixed-size sliding windows from a stream of
// samples. It keeps the last `window` samples in a ring and can render
// them, oldest first, as the (W, C) tensor detectors consume.
type WindowBuffer struct {
	window, channels int
	data             []float64 // ring storage, window × channels
	head             int       // next write slot
	count            int
}

// NewWindowBuffer returns a buffer for windows of the given size and width.
func NewWindowBuffer(window, channels int) *WindowBuffer {
	if window <= 0 || channels <= 0 {
		panic(fmt.Sprintf("stream: invalid window buffer %d×%d", window, channels))
	}
	return &WindowBuffer{
		window:   window,
		channels: channels,
		data:     make([]float64, window*channels),
	}
}

// Push appends one sample. It panics if the sample width is wrong.
func (b *WindowBuffer) Push(sample []float64) {
	if len(sample) != b.channels {
		panic(fmt.Sprintf("stream: sample width %d, want %d", len(sample), b.channels))
	}
	copy(b.data[b.head*b.channels:(b.head+1)*b.channels], sample)
	b.head = (b.head + 1) % b.window
	if b.count < b.window {
		b.count++
	}
}

// Full reports whether a complete window is available.
func (b *WindowBuffer) Full() bool { return b.count == b.window }

// Len returns the number of buffered samples (≤ window).
func (b *WindowBuffer) Len() int { return b.count }

// Window copies the current window, oldest sample first, into a (W, C)
// tensor. It panics unless Full.
func (b *WindowBuffer) Window() *tensor.Tensor {
	if !b.Full() {
		panic("stream: Window on partially filled buffer")
	}
	out := tensor.New(b.window, b.channels)
	b.CopyWindowInto(out.Data())
	return out
}

// CopyWindowInto writes the current window, oldest sample first, into dst
// (length ≥ window·channels) without allocating. It panics unless Full.
func (b *WindowBuffer) CopyWindowInto(dst []float64) {
	if !b.Full() {
		panic("stream: CopyWindowInto on partially filled buffer")
	}
	// Oldest sample sits at head (the next slot to be overwritten).
	for i := 0; i < b.window; i++ {
		src := (b.head + i) % b.window
		copy(dst[i*b.channels:(i+1)*b.channels], b.data[src*b.channels:(src+1)*b.channels])
	}
}

// Reset discards all buffered samples.
func (b *WindowBuffer) Reset() {
	b.head, b.count = 0, 0
}
