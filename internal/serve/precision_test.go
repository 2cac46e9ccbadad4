package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/stream"
)

// newPrecisionFleetServer registers one TinyConfig VARADE model at the
// given precision and starts a server for it. It returns the float64
// oracle twin (identical weights, float64 scoring) alongside.
func newPrecisionFleetServer(t *testing.T, channels int, precision string) (*Server, string, *core.Model) {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(core.TinyConfig(channels))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.SetPrecision(precision); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("varade", model); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Registry:      reg,
		DefaultModel:  "varade",
		FlushInterval: time.Millisecond,
		QueueDepth:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The float64 oracle: the same weights, default precision.
	if err := model.SetPrecision(core.PrecisionFloat64); err != nil {
		t.Fatal(err)
	}
	return srv, addr, model
}

// TestFleetFloat32WithinToleranceOfOracle is the reduced-precision
// counterpart of TestFleet64SessionsBitIdentical: sessions served by a
// float32 model must score within a small relative tolerance of the
// float64 per-device oracle, and the serving group must actually batch in
// float32.
func TestFleetFloat32WithinToleranceOfOracle(t *testing.T) {
	const (
		sessions = 8
		steps    = 50
		channels = 3
		relTol   = 1e-4
	)
	srv, addr, oracle := newPrecisionFleetServer(t, channels, core.PrecisionFloat32)
	defer srv.Shutdown(context.Background())

	w := oracle.WindowSize()
	type result struct {
		id     int
		scores []stream.Score
		err    error
	}
	results := make(chan result, sessions)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for id := 0; id < sessions; id++ {
		go func(id int) {
			series := synthSeries(steps, channels, uint64(300+id))
			cl, err := Dial(ctx, addr, "", channels)
			if err != nil {
				results <- result{id: id, err: err}
				return
			}
			defer cl.Close()
			var scores []stream.Score
			err = cl.Run(ctx, rowsOf(series), 16, func(sc stream.Score) {
				scores = append(scores, sc)
			})
			results <- result{id: id, scores: scores, err: err}
		}(id)
	}
	for i := 0; i < sessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("session %d: %v", r.id, r.err)
		}
		series := synthSeries(steps, channels, uint64(300+r.id))
		want := detect.ScoreSeries(oracle, series)
		if len(r.scores) != steps-w+1 {
			t.Fatalf("session %d: %d scores want %d", r.id, len(r.scores), steps-w+1)
		}
		for _, sc := range r.scores {
			ref := want[sc.Index]
			if d := math.Abs(sc.Value-ref) / math.Max(1e-12, math.Abs(ref)); d > relTol {
				t.Fatalf("session %d: score at %d = %g, oracle %g (rel diff %.3g > %g)",
					r.id, sc.Index, sc.Value, ref, d, relTol)
			}
		}
	}

	m := srv.Metrics()
	if len(m.Models) != 1 || m.Models[0].Precision != core.PrecisionFloat32 {
		t.Fatalf("serving group precision %+v, want float32", m.Models)
	}
	if want := int64(sessions * (steps - w + 1)); m.WindowsScored != want {
		t.Fatalf("metrics windows %d want %d", m.WindowsScored, want)
	}
}

// TestFleetInt8Serves checks the quantized path end to end through the
// registry (save → import → serve): scores arrive, track the oracle
// loosely (int8 noise), and the group reports int8 precision.
func TestFleetInt8Serves(t *testing.T) {
	const (
		steps    = 60
		channels = 2
	)
	srv, addr, oracle := newPrecisionFleetServer(t, channels, core.PrecisionInt8)
	defer srv.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	series := synthSeries(steps, channels, 77)
	cl, err := Dial(ctx, addr, "", channels)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var scores []stream.Score
	if err := cl.Run(ctx, rowsOf(series), 16, func(sc stream.Score) {
		scores = append(scores, sc)
	}); err != nil {
		t.Fatal(err)
	}
	w := oracle.WindowSize()
	if len(scores) != steps-w+1 {
		t.Fatalf("%d scores want %d", len(scores), steps-w+1)
	}
	want := detect.ScoreSeries(oracle, series)
	for _, sc := range scores {
		ref := want[sc.Index]
		if d := math.Abs(sc.Value-ref) / math.Max(1e-12, math.Abs(ref)); d > 0.2 {
			t.Fatalf("int8 score at %d = %g drifts %.3g from oracle %g", sc.Index, sc.Value, d, ref)
		}
	}
	m := srv.Metrics()
	if len(m.Models) != 1 || m.Models[0].Precision != core.PrecisionInt8 {
		t.Fatalf("serving group precision %+v, want int8", m.Models)
	}
}
