package stream

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/tensor"
)

// jitteredModel returns an untrained VARADE model whose every parameter —
// biases start at zero — has been moved off its initial value.
func jitteredModel(t testing.TB, cfg core.Config) *core.Model {
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

func seriesRows(series *tensor.Tensor) [][]float64 {
	rows := make([][]float64, series.Dim(0))
	for i := range rows {
		rows[i] = series.Row(i).Data()
	}
	return rows
}

// feedRunner pushes rows through r: a piece of size 0 is one Push, a piece
// of size k ≥ 1 one PushBatch of k samples; the pattern repeats until the
// rows run out.
func feedRunner(r *Runner, rows [][]float64, pattern []int) []Score {
	var out []Score
	for i := 0; len(rows) > 0; i++ {
		k := pattern[i%len(pattern)]
		if k == 0 {
			if s, ok := r.Push(rows[0]); ok {
				out = append(out, s)
			}
			rows = rows[1:]
			continue
		}
		k = min(k, len(rows))
		out = append(out, r.PushBatch(rows[:k])...)
		rows = rows[k:]
	}
	return out
}

// warms returns how many streams r's feed has warmed.
func warms(r *Runner) (n int64) {
	for _, k := range r.feed.Counts().Warms {
		n += k
	}
	return n
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1e-12, math.Abs(want))
}

// TestRunnerStreamMatchesScoreSeries: however the samples arrive — one
// Push at a time, PushBatch of any size on either side of the window
// length, or a mix — a runner over a float VARADE model returns, over more
// than three laps of its deepest ring, the scores of detect.ScoreSeries:
// bit for bit at float64, within 1e-4 at float32.
func TestRunnerStreamMatchesScoreSeries(t *testing.T) {
	for _, cfg := range []core.Config{
		{Window: 4, Channels: 3, BaseMaps: 5, KLWeight: 0.1, Seed: 1},
		{Window: 8, Channels: 17, BaseMaps: 16, KLWeight: 0.1, Seed: 2},
		{Window: 64, Channels: 2, BaseMaps: 6, KLWeight: 0.1, Seed: 3},
		{Window: 128, Channels: 5, BaseMaps: 4, KLWeight: 0.1, Seed: 4},
	} {
		m := jitteredModel(t, cfg)
		w := cfg.Window
		series := tensor.RandNormal(tensor.NewRNG(cfg.Seed), 0, 1, 4*w+300, cfg.Channels)
		rows := seriesRows(series)
		oracle := detect.ScoreSeries(m, series)[w-1:]
		patterns := [][]int{{0}, {1}, {9}, {256}, {w - 1}, {w}, {w + 1}, {0, 0, 3, 0, w + 1, 1, 9}}
		for _, precision := range []string{core.PrecisionFloat64, core.PrecisionFloat32} {
			if err := m.SetPrecision(precision); err != nil {
				t.Fatal(err)
			}
			for _, pattern := range patterns {
				name := fmt.Sprintf("T=%d C=%d %s pattern=%v", w, cfg.Channels, precision, pattern)
				r := NewRunner(m, cfg.Channels)
				got := feedRunner(r, rows, pattern)
				if len(got) != len(oracle) || r.Scored() != len(oracle) {
					t.Fatalf("%s: %d scores (Scored %d), want %d", name, len(got), r.Scored(), len(oracle))
				}
				if n := warms(r); n != 1 {
					t.Fatalf("%s: stream warmed %d times, want once", name, n)
				}
				for i, s := range got {
					if s.Index != w-1+i {
						t.Fatalf("%s: score %d has index %d", name, i, s.Index)
					}
					if precision == core.PrecisionFloat64 && math.Float64bits(s.Value) != math.Float64bits(oracle[i]) {
						t.Fatalf("%s: score %d = %x, oracle %x", name, i, s.Value, oracle[i])
					}
					if relErr(s.Value, oracle[i]) > 1e-4 {
						t.Fatalf("%s: score %d = %g, oracle %g", name, i, s.Value, oracle[i])
					}
				}
			}
		}
	}
}

// TestRunnerOwesNoWorkWhileFilling: the W−1 fill pushes only buffer their
// sample — no stream is made, nothing is compiled — whether they arrive one
// at a time or as a batch that completes no window.
func TestRunnerOwesNoWorkWhileFilling(t *testing.T) {
	cfg := core.TinyConfig(2)
	m := jitteredModel(t, cfg)
	if err := m.SetPrecision(core.PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	rows := seriesRows(tensor.RandNormal(tensor.NewRNG(1), 0, 1, cfg.Window, 2))
	r := NewRunner(m, 2)
	r.Push(rows[0])
	if out := r.PushBatch(rows[1 : cfg.Window-1]); out != nil || r.feed.Counts() != (detect.FeedCounts{}) {
		t.Fatalf("fill pushes made a stream (scores %v, counts %+v)", out, r.feed.Counts())
	}
	if _, ok := r.Push(rows[cfg.Window-1]); !ok || r.feed.Counts().Warms[detect.WarmJoin] != 1 || warms(r) != 1 {
		t.Fatalf("the first full window did not warm a stream (counts %+v)", r.feed.Counts())
	}
}

// TestRunnerFollowsItsModel: SetPrecision, Load and Fit between pushes take
// effect on the next push, as they did when Push called Score — the stream
// notices its program was replaced and is warmed again from the raw window
// history. A fresh int8 model scores its first window whole, which latches
// its activation scales, and streams from the next push on.
func TestRunnerFollowsItsModel(t *testing.T) {
	cfg := core.TinyConfig(3)
	w := cfg.Window
	m := jitteredModel(t, cfg)
	path := filepath.Join(t.TempDir(), "other.vmf")
	other := jitteredModel(t, core.Config{Window: w, Channels: 3, BaseMaps: cfg.BaseMaps, KLWeight: 0.1, Seed: 77})
	if err := other.Save(path); err != nil {
		t.Fatal(err)
	}
	series := tensor.RandNormal(tensor.NewRNG(9), 0, 1, 200, 3)
	rows := seriesRows(series)
	steps := []struct {
		name   string
		change func() error
		warms  int64 // stream warm-ups this step adds
	}{
		{"float32", func() error { return m.SetPrecision(core.PrecisionFloat32) }, 1},
		{"float64", func() error { return m.SetPrecision(core.PrecisionFloat64) }, 1},
		{"same precision again", func() error { return m.SetPrecision(core.PrecisionFloat64) }, 0},
		{"int8", func() error { return m.SetPrecision(core.PrecisionInt8) }, 1},
		{"float32 after int8", func() error { return m.SetPrecision(core.PrecisionFloat32) }, 1},
		{"Load", func() error { return m.Load(path) }, 1},
		{"Fit", func() error {
			tc := core.DefaultTrainConfig()
			tc.Epochs = 1
			return m.FitWindows(tensor.RandNormal(tensor.NewRNG(6), 0, 1, 80, 3), tc)
		}, 1},
	}
	r := NewRunner(m, 3)
	next, want := 0, int64(0)
	for _, st := range steps {
		if err := st.change(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want += st.warms
		// A few pushes, then a batch, under the model as it is now.
		for k := 0; k < 2*w; k++ {
			s, ok := r.Push(rows[next])
			next++
			if next < w {
				continue
			}
			want := m.Score(series.SliceRows(next-w, next))
			if !ok || s.Index != next-1 || relErr(s.Value, want) > 1e-4 {
				t.Fatalf("%s: push %d scored %+v (ok=%v), the model scores %g", st.name, next-1, s, ok, want)
			}
			if m.Precision() == core.PrecisionFloat64 && math.Float64bits(s.Value) != math.Float64bits(want) {
				t.Fatalf("%s: push %d scored %x, the model scores %x", st.name, next-1, s.Value, want)
			}
		}
		fallback := r.feed.Counts().Fallback
		for _, s := range r.PushBatch(rows[next : next+5]) {
			if want := m.Score(series.SliceRows(s.Index+1-w, s.Index+1)); relErr(s.Value, want) > 1e-4 {
				t.Fatalf("%s: batch score %d = %g, the model scores %g", st.name, s.Index, s.Value, want)
			}
		}
		next += 5
		if n := warms(r); n != want {
			t.Fatalf("%s: %d stream warm-ups so far, want %d", st.name, n, want)
		}
		if r.feed.Counts().Fallback != fallback {
			t.Fatalf("%s: no live stream at %s", st.name, m.Precision())
		}
	}
}

// TestRunnerStreamSurvivesStatelessScoring: Score, ScoreBatch and
// ScoreSeriesBatched on the runner's model between pushes — the benchmark
// primes the compiled program that way after 511 pushes — neither disturb
// the stream nor make it warm again.
func TestRunnerStreamSurvivesStatelessScoring(t *testing.T) {
	cfg := core.Config{Window: 16, Channels: 4, BaseMaps: 6, KLWeight: 0.1, Seed: 8}
	w := cfg.Window
	m := jitteredModel(t, cfg)
	series := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 6*w, 4)
	rows := seriesRows(series)
	oracle := detect.ScoreSeries(m, series)
	unrelated := tensor.RandNormal(tensor.NewRNG(3), 0, 1, 3*w, 4)
	r := NewRunner(m, 4)
	for i, row := range rows {
		if i == w-1 || i%7 == 0 { // before the first score, and all along
			m.Score(unrelated.SliceRows(0, w))
			m.ScoreBatch(unrelated.SliceRows(0, 2*w).Reshape(2, w, 4))
			detect.ScoreSeriesBatched(m, unrelated)
		}
		s, ok := r.Push(row)
		if ok != (i >= w-1) {
			t.Fatalf("push %d: scored=%v", i, ok)
		}
		if ok && math.Float64bits(s.Value) != math.Float64bits(oracle[i]) {
			t.Fatalf("push %d = %x, oracle %x", i, s.Value, oracle[i])
		}
	}
	if n := warms(r); n != 1 {
		t.Fatalf("stream warmed %d times, want once", n)
	}
}

// TestRunnerPushSteadyStateAllocs pins the steady-state Push at zero
// allocations at every precision: the stream owns its rings, one row of
// scratch and the tensor headers over it, and the int8 GEMM takes its
// packing scratch from a pool.
func TestRunnerPushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	for _, cfg := range []core.Config{
		core.EdgeConfig(17),
		{Window: 64, Channels: 17, BaseMaps: 32, KLWeight: 0.1, Seed: 1}, // mid-size: its last layers run the packed engine
	} {
		for _, precision := range []string{core.PrecisionFloat32, core.PrecisionFloat64, core.PrecisionInt8} {
			m := jitteredModel(t, cfg)
			if err := m.SetPrecision(precision); err != nil {
				t.Fatal(err)
			}
			rows := seriesRows(tensor.RandNormal(tensor.NewRNG(4), 0, 1, 2*cfg.Window, cfg.Channels))
			r := NewRunner(m, cfg.Channels)
			for _, row := range rows {
				r.Push(row)
			}
			fallback := r.feed.Counts().Fallback
			i := 0
			if n := testing.AllocsPerRun(100, func() {
				r.Push(rows[i%len(rows)])
				i++
			}); n != 0 {
				t.Errorf("T=%d %s: %v allocs per steady-state Push, want 0", cfg.Window, precision, n)
			}
			if r.feed.Counts().Fallback != fallback {
				t.Fatalf("T=%d %s: no live stream", cfg.Window, precision)
			}
		}
	}
}
