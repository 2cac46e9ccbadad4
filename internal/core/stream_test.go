package core

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"varade/internal/detect"
	"varade/internal/tensor"
)

// jitteredModel returns an untrained model whose every parameter — biases
// start at zero — has been moved off its initial value.
func jitteredModel(t testing.TB, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
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

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1e-12, math.Abs(want))
}

// TestScoreSeriesBatchedStreamsFloat: on both float precisions
// ScoreSeriesBatched runs the series through a fresh stream; float64 stays
// bit-identical to the per-window oracle and float32 within 1e-4 of it, at
// every depth of the cascade (Window 4 has one conv layer) and at series
// lengths on either side of a BatchChunk boundary.
func TestScoreSeriesBatchedStreamsFloat(t *testing.T) {
	for _, cfg := range []Config{
		{Window: 4, Channels: 3, BaseMaps: 5, KLWeight: 0.1, Seed: 1},
		{Window: 8, Channels: 17, BaseMaps: 16, KLWeight: 0.1, Seed: 2},
		{Window: 64, Channels: 2, BaseMaps: 6, KLWeight: 0.1, Seed: 3},
		{Window: 128, Channels: 5, BaseMaps: 4, KLWeight: 0.1, Seed: 4},
	} {
		m := jitteredModel(t, cfg)
		w := cfg.Window
		for _, length := range []int{w + 1, w + 9, w + 255, 3*detect.BatchChunk + 7} {
			name := fmt.Sprintf("T=%d C=%d maps=%d len=%d", w, cfg.Channels, cfg.BaseMaps, length)
			series := tensor.RandNormal(tensor.NewRNG(uint64(length)), 0, 1, length, cfg.Channels)
			if err := m.SetPrecision(PrecisionFloat64); err != nil {
				t.Fatal(err)
			}
			want := detect.ScoreSeries(m, series)
			got := detect.ScoreSeriesBatched(m, series)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: float64 score %d = %x, oracle %x", name, i, got[i], want[i])
				}
			}
			if err := m.SetPrecision(PrecisionFloat32); err != nil {
				t.Fatal(err)
			}
			for i, v := range detect.ScoreSeriesBatched(m, series) {
				if relErr(v, want[i]) > 1e-4 {
					t.Fatalf("%s: float32 score %d = %g, oracle %g", name, i, v, want[i])
				}
			}
		}
	}
}

// TestInt8ScoreSeriesBatchedKeepsWindowPath: an int8 model does not stream,
// and ScoreSeriesBatched returns byte for byte what chunked ScoreBatch calls
// over materialised windows return — including the activation scales a
// fresh model calibrates on its first 256-window chunk.
func TestInt8ScoreSeriesBatchedKeepsWindowPath(t *testing.T) {
	cfg := TinyConfig(3)
	series := tensor.RandNormal(tensor.NewRNG(21), 0, 1, 2*detect.BatchChunk+40, 3)
	var ms [2]*Model
	for i := range ms {
		ms[i] = jitteredModel(t, cfg)
		if err := ms[i].SetPrecision(PrecisionInt8); err != nil {
			t.Fatal(err)
		}
	}
	if ms[0].NewStream() != nil {
		t.Fatal("an int8 model offered a stream")
	}
	got := detect.ScoreSeriesBatched(ms[0], series)

	w, c := cfg.Window, cfg.Channels
	total := series.Dim(0) - w + 1
	var want []float64
	for start := 0; start < total; start += detect.BatchChunk {
		n := min(detect.BatchChunk, total-start)
		wins := tensor.New(n, w, c)
		for j := 0; j < n; j++ {
			copy(wins.Data()[j*w*c:(j+1)*w*c], series.Data()[(start+j)*c:(start+j+w)*c])
		}
		want = append(want, ms[1].ScoreBatch(wins)...)
	}
	for i, v := range want {
		if math.Float64bits(got[w-1+i]) != math.Float64bits(v) {
			t.Fatalf("int8 score %d = %x, chunked window path %x", i, got[w-1+i], v)
		}
	}
	for i, st := range ms[0].CalibrationStats() {
		if other := ms[1].CalibrationStats()[i]; st.Scale == 0 || st.Scale != other.Scale || st.Zero != other.Zero {
			t.Fatalf("stage %s calibrated to scale %g zero %d, window path %g/%d", st.Label, st.Scale, st.Zero, other.Scale, other.Zero)
		}
	}
}

// TestStreamDiesWithItsProgram: a stream follows the program it was made
// from. Replacing that program — another precision, retraining, loading —
// makes its next Extend consume nothing and report so; scoring unrelated
// windows in between does not.
func TestStreamDiesWithItsProgram(t *testing.T) {
	cfg := TinyConfig(2)
	series := tensor.RandNormal(tensor.NewRNG(5), 0, 1, 40, 2)
	rows := series.Data()
	path := filepath.Join(t.TempDir(), "m.vmf")
	replace := map[string]func(*Model) error{
		"SetPrecision": func(m *Model) error { return m.SetPrecision(PrecisionFloat64) },
		"FitWindows": func(m *Model) error {
			tc := DefaultTrainConfig()
			tc.Epochs = 1
			return m.FitWindows(tensor.RandNormal(tensor.NewRNG(6), 0, 1, 60, 2), tc)
		},
		"Load": func(m *Model) error { return m.Load(path) },
	}
	for name, fn := range replace {
		m := jitteredModel(t, cfg)
		if err := m.SetPrecision(PrecisionFloat32); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		st := m.NewStream()
		scores, ok := st.Extend(nil, rows[:20*2])
		if !ok || len(scores) != 20-cfg.Window+1 {
			t.Fatalf("%s: fresh stream returned %d scores, ok=%v", name, len(scores), ok)
		}
		m.Score(series.SliceRows(0, cfg.Window))
		m.ScoreBatch(windowsOf(series.SliceRows(3, 3+cfg.Window)))
		if _, ok := st.Extend(nil, rows[20*2:21*2]); !ok {
			t.Fatalf("%s: stateless scoring killed the stream", name)
		}
		if err := fn(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if scores, ok := st.Extend(scores[:0], rows[21*2:22*2]); ok || len(scores) != 0 {
			t.Fatalf("%s: stream outlived its program (%d scores, ok=%v)", name, len(scores), ok)
		}
		// Its successor scores with the model as it is now.
		want := detect.ScoreSeries(m, series)
		got, ok := m.NewStream().Extend(nil, rows)
		if !ok || len(got) != len(want)-cfg.Window+1 {
			t.Fatalf("%s: successor returned %d scores, ok=%v", name, len(got), ok)
		}
		for i, v := range got {
			if relErr(v, want[cfg.Window-1+i]) > 1e-4 {
				t.Fatalf("%s: successor score %d = %g, model scores %g", name, i, v, want[cfg.Window-1+i])
			}
		}
	}
}

// TestStreamSharesFloat32Panels: streaming a float32 model compiles nothing
// twice — WeightBytes, which counts the compiled program's weights once, is
// what it was, and the program Score uses is the one the stream was
// restated from.
func TestStreamSharesFloat32Panels(t *testing.T) {
	m := jitteredModel(t, EdgeConfig(17))
	if err := m.SetPrecision(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	net := floatProgram(m, &m.inf.net32)
	if m.NewStream() == nil {
		t.Fatal("a float32 model offered no stream")
	}
	if floatProgram(m, &m.inf.net32) != net {
		t.Fatal("NewStream recompiled the float32 program")
	}
	if got, want := 4*m.inf.stream32.StateLen(), 4*(1*17+2*16)+4*4*16; got != want {
		t.Fatalf("edge-scale stream state %d bytes, want %d", got, want)
	}
}
