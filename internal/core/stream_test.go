package core

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
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

// chunkedWindowScores scores every window of series through chunked
// ScoreBatch calls over materialised windows — the window path alone.
func chunkedWindowScores(m *Model, series *tensor.Tensor) []float64 {
	w, c := m.cfg.Window, m.cfg.Channels
	total := series.Dim(0) - w + 1
	var out []float64
	for start := 0; start < total; start += detect.BatchChunk {
		n := min(detect.BatchChunk, total-start)
		wins := tensor.New(n, w, c)
		for j := 0; j < n; j++ {
			copy(wins.Data()[j*w*c:(j+1)*w*c], series.Data()[(start+j)*c:(start+j+w)*c])
		}
		out = append(out, m.ScoreBatch(wins)...)
	}
	return out
}

// TestInt8StreamMatchesWindowLane: a fresh int8 model offers no stream, so
// its first ScoreSeriesBatched calibrates on its first 256-window chunk
// through the window path — to the scales, and the scores, of a twin that
// only ever scores windows. Calibrated, it streams, and the stream returns
// the window lane's bits for every window however the series is split, the
// ring wrapping at every depth.
func TestInt8StreamMatchesWindowLane(t *testing.T) {
	for _, cfg := range []Config{
		TinyConfig(3),
		EdgeConfig(17),
		{Window: 64, Channels: 2, BaseMaps: 16, KLWeight: 0.1, Seed: 3},
	} {
		w, c := cfg.Window, cfg.Channels
		name := fmt.Sprintf("T=%d C=%d maps=%d", w, c, cfg.BaseMaps)
		series := tensor.RandNormal(tensor.NewRNG(21), 0, 1, 2*detect.BatchChunk+40, c)
		var ms [2]*Model // a streaming model and its window-only twin
		for i := range ms {
			ms[i] = jitteredModel(t, cfg)
			if err := ms[i].SetPrecision(PrecisionInt8); err != nil {
				t.Fatal(err)
			}
		}
		if ms[0].NewStream() != nil {
			t.Fatalf("%s: an uncalibrated int8 model offered a stream", name)
		}
		first := detect.ScoreSeriesBatched(ms[0], series)
		want := chunkedWindowScores(ms[1], series)
		for i, st := range ms[0].CalibrationStats() {
			if other := ms[1].CalibrationStats()[i]; st.Scale == 0 || st.Scale != other.Scale || st.Zero != other.Zero {
				t.Fatalf("%s: stage %s calibrated to scale %g zero %d, window-only twin %g/%d", name, st.Label, st.Scale, st.Zero, other.Scale, other.Zero)
			}
		}
		checkScores := func(what string, got []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d scores, want %d", name, what, len(got), len(want))
			}
			for i, v := range want {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("%s %s: int8 score %d = %x, window lane %x", name, what, i, got[i], v)
				}
			}
		}
		checkScores("first ScoreSeriesBatched", first[w-1:])

		if ms[0].NewStream() == nil {
			t.Fatalf("%s: a calibrated int8 model offered no stream", name)
		}
		checkScores("streamed ScoreSeriesBatched", detect.ScoreSeriesBatched(ms[0], series)[w-1:])
		rows := series.Data()
		for _, split := range []int{1, 9, w - 1, w, w + 1, detect.BatchChunk + 7} {
			st := ms[0].NewStream()
			var got []float64
			for r := rows; len(r) > 0; {
				n := min(split*c, len(r))
				var ok bool
				if got, ok = st.Extend(got, r[:n]); !ok {
					t.Fatalf("%s split %d: stream died", name, split)
				}
				r = r[n:]
			}
			checkScores(fmt.Sprintf("split %d", split), got)
		}
	}
}

// TestStreamsConcurrentEveryPrecision: goroutines that stream one shared
// model at once — restating its program on first use, then each running
// its own state over the shared panels and requant tables — and others that
// score its windows meanwhile all get the scores a sequential twin gets on
// the same path (at float32 the two paths round differently).
func TestStreamsConcurrentEveryPrecision(t *testing.T) {
	cfg := EdgeConfig(17)
	series := tensor.RandNormal(tensor.NewRNG(41), 0, 1, 300, cfg.Channels)
	for _, p := range []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8} {
		twin, shared := jitteredModel(t, cfg), jitteredModel(t, cfg)
		for _, m := range []*Model{twin, shared} {
			if err := m.SetPrecision(p); err != nil {
				t.Fatal(err)
			}
			detect.ScoreSeriesBatched(m, series) // at int8, calibrates on the window lane
		}
		wantWindow := chunkedWindowScores(twin, series)
		wantStream := detect.ScoreSeriesBatched(twin, series)[cfg.Window-1:]
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got, want := chunkedWindowScores(shared, series), wantWindow
					if g%2 == 0 {
						got, want = detect.ScoreSeriesBatched(shared, series)[cfg.Window-1:], wantStream
					}
					for i, v := range want {
						if math.Float64bits(got[i]) != math.Float64bits(v) {
							t.Errorf("%s goroutine %d rep %d: score %d = %x, sequential %x", p, g, rep, i, got[i], v)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
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

// TestScoreSeriesBatchedSteadyStateAllocs: a 256-window ScoreSeriesBatched
// of a compiled edge model — the engine-batch call — allocates, beyond its
// output, only a fresh stream's rings and the feed around it, at every
// precision: the scratch of each pass is the program's, borrowed and given
// back.
func TestScoreSeriesBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	cfg := EdgeConfig(17)
	series := tensor.RandNormal(tensor.NewRNG(5), 0, 1, detect.BatchChunk+cfg.Window-1, cfg.Channels)
	out := series.Dim(0) * 8 // the scores ScoreSeriesBatched returns
	for _, precision := range []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8} {
		m := jitteredModel(t, cfg)
		if err := m.SetPrecision(precision); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // compile, calibrate, stream
			detect.ScoreSeriesBatched(m, series)
		}
		const calls = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			detect.ScoreSeriesBatched(m, series)
		}
		runtime.ReadMemStats(&after)
		perCall := int(after.TotalAlloc-before.TotalAlloc) / calls
		t.Logf("%s: %d B per call, %d of them the output", precision, perCall, out)
		if perCall-out > 8<<10 {
			t.Errorf("%s: %d B per call beyond the %d B output, want under 8 KiB", precision, perCall-out, out)
		}
	}
}
