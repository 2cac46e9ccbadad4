package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"varade/internal/tensor"
)

// meanDetector scores a window by its overall mean.
type meanDetector struct{ w int }

func (d *meanDetector) Name() string                   { return "mean" }
func (d *meanDetector) WindowSize() int                { return d.w }
func (d *meanDetector) Fit(*tensor.Tensor) error       { return nil }
func (d *meanDetector) Score(w *tensor.Tensor) float64 { return w.Mean() }

func TestRunnerProducesScoresOncePrimed(t *testing.T) {
	r := NewRunner(&meanDetector{w: 3}, 1)
	var scores []Score
	for i := 0; i < 6; i++ {
		if s, ok := r.Push([]float64{float64(i)}); ok {
			scores = append(scores, s)
		}
	}
	// Windows complete at pushes 3..6 → 4 scores, indices 2..5.
	if len(scores) != 4 || r.Scored() != 4 {
		t.Fatalf("%d scores", len(scores))
	}
	if scores[0].Index != 2 || scores[0].Value != 1 { // mean(0,1,2)
		t.Fatalf("first score %+v", scores[0])
	}
	if scores[3].Index != 5 || scores[3].Value != 4 { // mean(3,4,5)
		t.Fatalf("last score %+v", scores[3])
	}
}

func TestBusDeliversToAllSubscribers(t *testing.T) {
	b := NewBus[[]float64]()
	s1 := b.Subscribe(10)
	s2 := b.Subscribe(10)
	b.Publish([]float64{1, 2})
	b.Publish([]float64{3, 4})
	b.Close()
	count1, count2 := 0, 0
	for range s1 {
		count1++
	}
	for range s2 {
		count2++
	}
	if count1 != 2 || count2 != 2 {
		t.Fatalf("subscribers got %d and %d samples", count1, count2)
	}
}

func TestBusDropsOldestUnderBackpressure(t *testing.T) {
	b := NewBus[[]float64]()
	s := b.Subscribe(2)
	for i := 0; i < 5; i++ {
		b.Publish([]float64{float64(i)})
	}
	b.Close()
	var got []float64
	for sample := range s {
		got = append(got, sample[0])
	}
	if len(got) != 2 {
		t.Fatalf("queue held %d samples, want 2", len(got))
	}
	// The two newest samples survive.
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("surviving samples %v want [3 4]", got)
	}
	if b.Dropped() != 3 {
		t.Fatalf("dropped %d want 3", b.Dropped())
	}
}

func TestBusPublishAfterCloseIsNoop(t *testing.T) {
	b := NewBus[[]float64]()
	b.Close()
	b.Publish([]float64{1}) // must not panic
	if ch := b.Subscribe(1); ch == nil {
		t.Fatal("subscribe after close must return a closed channel")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []float64{1.5, -2.25, 0, 1e-9}
	line := EncodeSample(in)
	out, err := DecodeSample(line, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip %v → %v", in, out)
		}
	}
}

func TestDecodeSampleErrors(t *testing.T) {
	if _, err := DecodeSample("1,2,3", 2); err == nil {
		t.Fatal("expected width error")
	}
	if _, err := DecodeSample("1,abc", 2); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestReadSamplesEarlyStop(t *testing.T) {
	input := "1,2\n3,4\n5,6\n"
	n := 0
	err := ReadSamples(strings.NewReader(input), 2, func([]float64) bool {
		n++
		return n < 2
	})
	if err != nil || n != 2 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

func TestTCPServeAndScore(t *testing.T) {
	series := tensor.New(20, 2)
	for i := 0; i < 20; i++ {
		series.Set2(float64(i), i, 0)
		series.Set2(float64(-i), i, 1)
	}
	addr, stop, err := ServeSeries(context.Background(), "127.0.0.1:0", series)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	r := NewRunner(&meanDetector{w: 4}, 2)
	var scores []Score
	done := make(chan error, 1)
	go func() {
		done <- DialAndScore(context.Background(), addr, 2, r, func(s Score) { scores = append(scores, s) })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	// 20 samples, window 4 → 17 scores.
	if len(scores) != 17 {
		t.Fatalf("%d scores want 17", len(scores))
	}
	// Channel means cancel: window of rows i..i+3 has mean 0 on both
	// channels combined.
	if scores[0].Value != 0 {
		t.Fatalf("first score %g want 0", scores[0].Value)
	}
}
