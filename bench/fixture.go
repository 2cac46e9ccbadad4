package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/eval"
	"varade/internal/robot"
	"varade/internal/tensor"
)

const edgeChannels = 17

// f32RelTol is the per-window float32-vs-float64 tolerance the tier-1
// precision test (core.TestFloat32ScoresWithinTolerance) uses; the int8
// lane is held to that suite's AUC gate instead (int8AUCFloor), because
// tier-1 states no per-window int8 tolerance.
const (
	f32RelTol    = 1e-4
	int8AUCFloor = 0.99
)

var precisions = []string{core.PrecisionFloat64, core.PrecisionFloat32, core.PrecisionInt8}

// short maps a precision to the suffix used in metric names and by
// obs.ComputeStage.
func short(precision string) string {
	switch precision {
	case core.PrecisionFloat64:
		return "f64"
	case core.PrecisionFloat32:
		return "f32"
	}
	return precision
}

// timed runs fn under a span and returns what it took.
func timed(tr *tracer, name string, id int64, parent string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.add(name, id, parent, t0, t1)
	return t1.Sub(t0)
}

// edgeFixture is the trained edge-scale model persisted at every
// precision, plus the simulated collision series the workloads replay.
type edgeFixture struct {
	oracle *core.Model       // the trained float64 model
	paths  map[string]string // precision → container file
	test   *tensor.Tensor    // (testRows, 17), normalised, with collisions
}

// buildEdgeFixture simulates the robot, trains core.EdgeConfig(17) for a
// fixed seeded epoch count and saves it once per precision; the int8
// container is calibrated on the training series before export, so its
// activation scales (and with them its scores) are the same in every
// process that loads it.
func buildEdgeFixture(seed uint64, dir string, testRows int, tr *tracer, parent string) (*edgeFixture, error) {
	cfg := robot.DatasetConfig{Sim: robot.DefaultSimConfig(), TrainSeconds: 240,
		TestSeconds: float64(testRows) / 10, Collisions: testRows / 160}
	cfg.Sim.Seed = seed
	var ds *robot.Dataset
	var err error
	timed(tr, "robot.Generate", 0, parent, func() { ds, err = robot.Generate(cfg) })
	if err != nil {
		return nil, err
	}
	idx := robot.InterestingChannels()
	train := robot.SelectChannels(ds.Train, idx)
	fx := &edgeFixture{paths: map[string]string{}, test: robot.SelectChannels(ds.Test, idx).SliceRows(0, testRows)}

	if fx.oracle, err = core.New(core.EdgeConfig(edgeChannels)); err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Seed, tc.Shards = seed, 1
	timed(tr, "core.Model.FitWindows", 0, parent, func() { err = fx.oracle.FitWindows(train, tc) })
	if err != nil {
		return nil, err
	}

	// A twin carries the reduced precisions so the oracle stays float64.
	path := filepath.Join(dir, "edge-float64.vmf")
	timed(tr, "core.Model.Save", 0, parent, func() { err = fx.oracle.Save(path) })
	if err != nil {
		return nil, err
	}
	fx.paths[core.PrecisionFloat64] = path
	twin, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	for i, p := range precisions[1:] {
		if err := twin.SetPrecision(p); err != nil {
			return nil, err
		}
		if p == core.PrecisionInt8 {
			detect.ScoreSeriesBatched(twin, train) // calibrate activation scales
		}
		path := filepath.Join(dir, "edge-"+p+".vmf")
		timed(tr, "core.Model.Save", int64(i+1), parent, func() { err = twin.Save(path) })
		if err != nil {
			return nil, err
		}
		fx.paths[p] = path
		if st, err := os.Stat(path); err == nil {
			tr.count("modelio.container_kb."+short(p), float64(st.Size())/1024)
		}
	}
	return fx, nil
}

// load reconstructs a fresh instance from the precision's container.
func (fx *edgeFixture) load(precision string, tr *tracer, parent string) (*core.Model, error) {
	var m *core.Model
	var err error
	timed(tr, "core.LoadModel."+short(precision), 0, parent, func() { m, err = core.LoadModel(fx.paths[precision]) })
	if err != nil {
		return nil, err
	}
	if m.Precision() != precision {
		return nil, fmt.Errorf("container %s loaded as %s", fx.paths[precision], m.Precision())
	}
	return m, nil
}

// cyclicScores scores, with score (the float64 per-window oracle
// detect.ScoreSeries, or detect.ScoreSeriesBatched for a precision's own
// engine), every window of the endless stream that repeats rows: out[j] is
// the score of the window ending at stream index w−1+j (mod len(rows)), so
// a stream index i ≥ w−1 maps to out[(i−(w−1)) % len(out)].
func cyclicScores(m *core.Model, score func(detect.Detector, *tensor.Tensor) []float64, rows *tensor.Tensor) []float64 {
	n, c, w := rows.Dim(0), rows.Dim(1), m.WindowSize()
	ext := tensor.New(n+w-1, c)
	for r := 0; r < n+w-1; r++ {
		copy(ext.Row(r).Data(), rows.Row(r%n).Data())
	}
	return score(m, ext)[w-1:]
}

// lane accumulates one precision's delivered scores against the oracle.
type lane struct {
	precision string
	labels    []bool    // oracle score above its own 90th percentile
	got       []float64 // last delivered score per oracle position, NaN until seen
	// A delivered score is held, position by position, to want within the
	// relative tolerance tol; a nil want asks only that it be finite.
	want []float64
	tol  float64
}

// newLane builds the lane of a precision over the oracle's scores. A
// float64 score must equal the oracle's bit for bit; a float32 one must be
// within the 1e-4 relative tolerance of the tier-1 precision test. Tier-1
// states no per-window int8 tolerance, so an int8 lane is held to its AUC
// gate alone — unless engine holds what the int8 engine itself scores for
// each position, offline: then every score must also be within 1e-4 of
// that (the calibrated int8 container scores a window the same in any
// batch), which is what lets a paced session find its place in the stream
// again after the tier shed rows.
func newLane(precision string, oracle, engine []float64, tr *tracer, parent string) (*lane, error) {
	s := append([]float64(nil), oracle...)
	sort.Float64s(s)
	th := percentile(s, 0.9)
	l := &lane{precision: precision, labels: make([]bool, len(oracle)), got: make([]float64, len(oracle))}
	switch precision {
	case core.PrecisionFloat64:
		l.want = oracle
	case core.PrecisionFloat32:
		l.want, l.tol = oracle, f32RelTol
	default:
		l.want, l.tol = engine, f32RelTol
	}
	for i, v := range oracle {
		l.labels[i] = v > th
		l.got[i] = math.NaN()
	}
	if th >= s[len(s)-1] {
		return nil, fmt.Errorf("oracle scores are constant: no window is above the 90th percentile")
	}
	// Self-check: the oracle ranks its own alarms perfectly.
	var self float64
	timed(tr, "eval.AUCROC", 0, parent, func() { self = eval.AUCROC(oracle, l.labels) })
	if self != 1 {
		return nil, fmt.Errorf("oracle self-AUC %g, want 1", self)
	}
	return l, nil
}

// matches reports whether v passes the precision's per-window hard check at
// oracle position pos.
func (l *lane) matches(pos int, v float64) bool {
	if l.want == nil {
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	want := l.want[pos]
	if l.tol == 0 {
		return math.Float64bits(v) == math.Float64bits(want)
	}
	return math.Abs(v-want) <= l.tol*math.Max(1e-12, math.Abs(want))
}

// record keeps v as the score delivered for oracle position pos.
func (l *lane) record(pos int, v float64) { l.got[pos] = v }

// check records the score delivered for oracle position pos and reports
// whether it passes the hard check.
func (l *lane) check(pos int, v float64) bool {
	l.record(pos, v)
	return l.matches(pos, v)
}

// auc is the AUC of the delivered scores against the oracle's alarms, over
// the positions that were delivered; ok is false when an int8 lane falls
// below the tier-1 gate.
func (l *lane) auc() (auc float64, ok bool) {
	var scores []float64
	var labels []bool
	pos := 0
	for i, v := range l.got {
		if !math.IsNaN(v) {
			scores = append(scores, v)
			labels = append(labels, l.labels[i])
			if l.labels[i] {
				pos++
			}
		}
	}
	if len(scores) == 0 {
		return 0, false
	}
	if pos == 0 || pos == len(scores) {
		return 1, true // a run too short to deliver both classes has nothing to misrank
	}
	auc = eval.AUCROC(scores, labels)
	return auc, l.precision != core.PrecisionInt8 || auc >= int8AUCFloor
}

// worstAUC is the lowest lane AUC — the fast path that disagrees most with
// the oracle's alarms — and the number of windows in lanes that failed
// their gate.
func worstAUC(lanes []*lane) (auc float64, failed int64) {
	auc = 1
	for _, l := range lanes {
		a, ok := l.auc()
		if a < auc {
			auc = a
		}
		if !ok {
			failed += int64(len(l.got))
		}
	}
	return auc, failed
}
