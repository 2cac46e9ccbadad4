package core_test

import (
	"fmt"
	"math"
	"testing"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/nn"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// TestFloat32PathsBitIdentical: at float32 every path to a window's score
// gives the same bits — the window lane (ScoreBatch, in batches of any
// size), a whole series (ScoreSeriesBatched), one sample at a time
// (Runner.Push) and backlogs of every size (PushBatch), the stream's
// passes of StreamChunk rows included. Every compiled product sweeps the
// same packed panels, whose short row panels keep each element's chain, so
// a row's bits do not depend on how many rows it was multiplied with.
func TestFloat32PathsBitIdentical(t *testing.T) {
	if nn.StreamChunk != detect.BatchChunk {
		t.Fatalf("stream passes of %d rows, window batches of %d", nn.StreamChunk, detect.BatchChunk)
	}
	for _, cfg := range []core.Config{
		core.TinyConfig(3),
		core.EdgeConfig(17),
		{Window: 64, Channels: 17, BaseMaps: 32, KLWeight: 0.1, Seed: 3},
		{Window: 32, Channels: 86, BaseMaps: 16, KLWeight: 0.1, Seed: 4},
	} {
		w, c := cfg.Window, cfg.Channels
		name := fmt.Sprintf("T=%d C=%d maps=%d", w, c, cfg.BaseMaps)
		m := jittered(t, cfg)
		if err := m.SetPrecision(core.PrecisionFloat32); err != nil {
			t.Fatal(err)
		}
		series := tensor.RandNormal(tensor.NewRNG(31), 0, 1, 2*detect.BatchChunk+w+40, c)
		want := windowLane(m, series, 100)

		check := func(path string, got []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d scores, want %d", name, path, len(got), len(want))
			}
			differ, first := 0, -1
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					if differ++; first < 0 {
						first = i
					}
				}
			}
			if differ > 0 {
				t.Fatalf("%s %s: %d of %d windows differ from the window lane; first %d: %v vs %v",
					name, path, differ, len(want), first, got[first], want[first])
			}
		}
		check("ScoreSeriesBatched", detect.ScoreSeriesBatched(m, series)[w-1:])

		rows := make([][]float64, series.Dim(0))
		for i := range rows {
			rows[i] = series.Row(i).Data()
		}
		r, got := stream.NewRunner(m, c), []float64(nil)
		for _, row := range rows {
			if s, ok := r.Push(row); ok {
				got = append(got, s.Value)
			}
		}
		check("Push", got)
		for _, split := range []int{1, 2, 7, 8, 9, w - 1, w + 1, detect.BatchChunk + 7} {
			r, got := stream.NewRunner(m, c), []float64(nil)
			for lo := 0; lo < len(rows); lo += split {
				for _, s := range r.PushBatch(rows[lo:min(lo+split, len(rows))]) {
					got = append(got, s.Value)
				}
			}
			check(fmt.Sprintf("PushBatch(%d)", split), got)
		}
	}
}

// jittered returns an untrained model whose every parameter — biases start
// at zero — has been moved off its initial value.
func jittered(t *testing.T, cfg core.Config) *core.Model {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(cfg.Seed + 100)
	for _, p := range m.Params() {
		d := p.Value.Data()
		for i := range d {
			d[i] += 0.1 * rng.NormFloat64()
		}
	}
	return m
}

// windowLane scores every window of series through ScoreBatch over
// materialised windows, batch at a time.
func windowLane(m *core.Model, series *tensor.Tensor, batch int) []float64 {
	w, c := m.WindowSize(), series.Dim(1)
	total := series.Dim(0) - w + 1
	var out []float64
	for start := 0; start < total; start += batch {
		n := min(batch, total-start)
		wins := tensor.New(n, w, c)
		for j := 0; j < n; j++ {
			copy(wins.Data()[j*w*c:(j+1)*w*c], series.Data()[(start+j)*c:(start+j+w)*c])
		}
		out = append(out, m.ScoreBatch(wins)...)
	}
	return out
}
