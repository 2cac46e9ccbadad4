package main

import (
	"fmt"
	"runtime"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/robot"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// closedWorkload is a one-caller loop: the next operation starts as soon
// as the previous one returns, so a slower system receives less load.
type closedWorkload struct {
	opSpan string  // the public call one operation times
	sloMs  float64 // frozen SLO on one operation
	// call makes the timed public call for operation k; verify then checks
	// its output and reports the windows it owed and how many failed.
	call   func(k int)
	verify func(k int) (windows, failed int64)
	lanes  []*lane
}

// Paper scale: the §4.3 loop, one 86-channel sample at a time.
const (
	paperChannels = robot.NumChannels
	// paperPeriod is the length of the sample loop edge-single replays. A
	// stream that repeats every P rows has only P distinct windows, so P
	// float64 oracle scores (~29 ms each) verify every window of the run.
	paperPeriod = 32
)

func setupEdgeSingle(seed uint64, _ string, tr *tracer, parent string) (*closedWorkload, error) {
	sc := robot.DefaultSimConfig()
	sc.Seed, sc.SampleRate = seed, 200 // the IMUs' native rate
	var series *tensor.Tensor
	var err error
	timed(tr, "robot.Generate", 0, parent, func() {
		var sim *robot.Simulator
		if sim, err = robot.NewSimulator(sc); err != nil {
			return
		}
		raw := sim.Run(2000) // 10 s: enough motion to fit the scaler
		series = robot.FitNormalizer(raw).Apply(raw).SliceRows(0, paperPeriod)
	})
	if err != nil {
		return nil, err
	}
	m, err := core.New(core.PaperConfig(paperChannels))
	if err != nil {
		return nil, err
	}
	var oracle []float64
	timed(tr, "detect.ScoreSeries(oracle)", 0, parent, func() { oracle = cyclicScores(m, detect.ScoreSeries, series) })
	ln, err := newLane(core.PrecisionFloat32, oracle, nil, tr, parent)
	if err != nil {
		return nil, err
	}
	if err := m.SetPrecision(core.PrecisionFloat32); err != nil {
		return nil, err
	}
	runner := stream.NewRunner(m, paperChannels)
	rows := make([][]float64, paperPeriod)
	for r := range rows {
		rows[r] = series.Row(r).Data()
	}
	// Fill the window up to one sample short, then compile the float32
	// program, so the first warm-up Push is an ordinary steady-state one
	// and lazy compilation is counted in setup_s.
	w := m.WindowSize()
	next := 0 // stream index of the next sample
	for ; next < w-1; next++ {
		if _, ok := runner.Push(rows[next%paperPeriod]); ok {
			return nil, fmt.Errorf("edge-single: score before the window filled")
		}
	}
	timed(tr, "core.Model.Score(compile)", 0, parent, func() { m.Score(tensor.New(w, paperChannels)) })

	wl := &closedWorkload{opSpan: "stream.Runner.Push", sloMs: sloEdgeSingleMs, lanes: []*lane{ln}}
	var score stream.Score
	var scored bool
	wl.call = func(int) {
		score, scored = runner.Push(rows[next%paperPeriod])
		next++
	}
	wl.verify = func(int) (int64, int64) {
		idx := next - 1
		if !scored || score.Index != idx || !ln.check((idx-(w-1))%paperPeriod, score.Value) {
			return 1, 1
		}
		return 1, 0
	}
	return wl, nil
}

// Engine batch: one operation is one 256-window chunk.
const (
	batchWindows = detect.BatchChunk
	batchSlices  = 64 // slices tile the series: 64 × 256 windows
)

func setupEngineBatch(seed uint64, dir string, tr *tracer, parent string) (*closedWorkload, error) {
	w := core.EdgeConfig(edgeChannels).Window
	fx, err := buildEdgeFixture(seed, dir, batchSlices*batchWindows+w-1, tr, parent)
	if err != nil {
		return nil, err
	}
	var oracle []float64
	timed(tr, "detect.ScoreSeries(oracle)", 0, parent, func() { oracle = detect.ScoreSeries(fx.oracle, fx.test)[w-1:] })

	slices := make([]*tensor.Tensor, batchSlices)
	for s := range slices {
		slices[s] = fx.test.SliceRows(s*batchWindows, s*batchWindows+batchWindows+w-1)
	}
	// Three instances loaded from the three containers, each compiled by
	// one priming call, so no measured round recompiles.
	models := make([]*core.Model, len(precisions))
	wl := &closedWorkload{opSpan: "detect.ScoreSeriesBatched", sloMs: sloEngineBatchMs}
	for i, p := range precisions {
		if models[i], err = fx.load(p, tr, parent); err != nil {
			return nil, err
		}
		ln, err := newLane(p, oracle, nil, tr, parent)
		if err != nil {
			return nil, err
		}
		wl.lanes = append(wl.lanes, ln)
		detect.ScoreSeriesBatched(models[i], slices[0])
	}
	var out []float64
	wl.call = func(k int) {
		out = detect.ScoreSeriesBatched(models[k%len(models)], slices[k%batchSlices])
	}
	wl.verify = func(k int) (int64, int64) {
		if len(out) != batchWindows+w-1 {
			return batchWindows, batchWindows
		}
		ln, off := wl.lanes[k%len(models)], (k%batchSlices)*batchWindows
		var failed int64
		for j, v := range out[w-1:] {
			if !ln.check(off+j, v) {
				failed++
			}
		}
		return batchWindows, failed
	}
	return wl, nil
}

// stageTotals folds obs.StagesSnapshot() into {ns, windows} per
// {stage, precision}.
func stageTotals() map[[2]string][2]int64 {
	out := map[[2]string][2]int64{}
	for _, st := range obs.StagesSnapshot() {
		out[[2]string{st.Stage, st.Precision}] = [2]int64{st.Ns, st.Windows}
	}
	return out
}

// stageLayerMetrics reports the compute stages' ns per window over the
// interval between two stageTotals snapshots.
func stageLayerMetrics(before, after map[[2]string][2]int64, L map[string]float64) {
	for key, a := range after {
		b := before[key]
		if dw := a[1] - b[1]; dw > 0 {
			L["nn."+key[0]+"_ns_per_window."+key[1]] = float64(a[0]-b[0]) / float64(dw)
		}
	}
}

// closedMetrics computes a closed loop's timing metrics from its rounds, by
// the quiet-round rule: rate and CPU over the faster half of the rounds
// pooled, latency percentiles as the median over those rounds of each
// round's own percentile, the SLO share over all rounds. (Pooling the quiet
// rounds' latencies, as the issue first had it, leaves edge-single's p99
// resting on its five slowest operations of 570: it ranged 12% between
// identical runs, the median round's 6%.)
func closedMetrics(rs []round, sloMs float64) (m map[string]float64, quiet, all pooled) {
	quietIdx := quietRounds(rs, allRounds(rs))
	quiet, all = pool(rs, quietIdx), pool(rs, allRounds(rs))
	var owed, met int64
	for _, r := range rs {
		owed += r.windows
		for i, lat := range r.lat {
			if lat <= sloMs {
				met += r.good[i]
			}
		}
	}
	return map[string]float64{
		"windows_per_s":     quiet.rate,
		"latency_p50_ms":    roundPercentile(rs, quietIdx, 0.50),
		"latency_p99_ms":    roundPercentile(rs, quietIdx, 0.99),
		"slo_met_share":     float64(met) / float64(owed),
		"cpu_s_per_mwindow": quiet.cpuPerWindow * 1e6,
	}, quiet, all
}

// runClosed drives a closed-loop workload: warm-up, then cfg.rounds rounds
// of cfg.roundDur each, timing every operation. The report's end-to-end
// figures are in reference seconds, every round converted by its own speed
// factor (speed.go); the same figures in wall seconds go to rep.Raw. With
// tracing on, spans are recorded on every other round so the traced run
// prices its own overhead.
func runClosed(cfg runConfig, wl *closedWorkload, rep *report, tr *tracer) {
	var k int
	var attempted, failed int64
	// op runs operation k and returns its duration in ms, the windows it
	// owed and how many of them passed the hard checks.
	op := func(rt *tracer, parent string) (wallMs float64, windows, good int64) {
		t0 := time.Now()
		wl.call(k)
		t1 := time.Now()
		windows, bad := wl.verify(k)
		rt.add(wl.opSpan, int64(k), parent, t0, t1)
		rt.add("bench.verify", int64(k), parent, t1, time.Now())
		attempted += windows
		failed += bad
		k++
		return ms(t1.Sub(t0)), windows, windows - bad
	}
	for end := time.Now().Add(cfg.warmup); time.Now().Before(end); {
		op(nil, "")
	}
	warmAttempted, warmFailed := attempted, failed
	attempted, failed = 0, 0

	var ms0, ms1 runtime.MemStats
	stages0 := stageTotals()
	steal0, ticks0 := cpuTicks()
	if cfg.trace {
		runtime.ReadMemStats(&ms0)
	}
	rounds := make([]round, cfg.rounds)
	var tracedWall time.Duration
	goroutines := 0
	phase0 := time.Now()
	for r := range rounds {
		rd := &rounds[r]
		rd.traced = cfg.trace && r%2 == 0
		var rt *tracer
		if rd.traced {
			rt = tr
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		for end := t0.Add(cfg.roundDur); time.Now().Before(end); {
			wallMs, windows, ok := op(rt, roundName(r))
			rd.windows += windows
			rd.lat = append(rd.lat, wallMs)
			rd.good = append(rd.good, ok)
		}
		t1 := time.Now()
		cpu := cpuSeconds() - cpu0
		rt.add("bench.round", int64(r), "", t0, t1)
		if rd.traced {
			tracedWall += t1.Sub(t0)
		}
		var tickCPU float64
		rd.factor, tickCPU = cfg.speed.over(t0, t1)
		rd.elapsed, rd.cpu = t1.Sub(t0), cpu-tickCPU
		rd.rssMB = cfg.rss.take()
		if n := runtime.NumGoroutine(); n > goroutines {
			goroutines = n
		}
	}
	phase1 := time.Now()
	if steal1, ticks1 := cpuTicks(); ticks1 > ticks0 {
		rep.Env.StealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}
	rep.Env.SpeedFactor, _ = cfg.speed.over(phase0, phase1)

	ref := reference(rounds, false)
	e2e, quiet, all := closedMetrics(ref, wl.sloMs)
	raw, _, _ := closedMetrics(rounds, wl.sloMs)
	for name, v := range raw {
		rep.Raw[name] = v
	}
	auc, aucFailed := worstAUC(wl.lanes)
	rep.Attempted = warmAttempted + attempted
	rep.Failed = warmFailed + failed + aucFailed
	rep.Wrong = rep.Failed
	rep.Scored = rep.Attempted - warmFailed - failed
	rep.Samples["latency"] = len(quiet.lat)
	rep.Rounds = summarize(ref)
	for name, v := range e2e {
		rep.E2E[name] = v
	}
	rep.E2E["auc_vs_oracle"] = auc
	rep.E2E["peak_rss_mb"] = medianRSS(rounds)
	if !cfg.trace {
		return
	}

	runtime.ReadMemStats(&ms1)
	phase := phase1.Sub(phase0).Seconds()
	stageLayerMetrics(stages0, stageTotals(), rep.Layer)
	rep.Layer["core.allocs_per_window."+cfg.workload] = float64(ms1.Mallocs-ms0.Mallocs) / float64(attempted)
	rep.Layer["bench.machine_speed"] = rep.Env.SpeedFactor
	rep.Layer["bench.quiet_gap"] = 1 - all.rate/quiet.rate
	rep.Layer["bench.round_iqr_share"] = roundIQRShare(ref)
	rep.Layer["bench.round_p50_ms"] = roundPercentile(ref, allRounds(ref), 0.50)
	rep.Layer["bench.round_p99_ms"] = roundPercentile(ref, allRounds(ref), 0.99)
	rep.Layer["bench.steal_share"] = rep.Env.StealShare
	rep.Layer["bench.gc_cycles_per_s"] = float64(ms1.NumGC-ms0.NumGC) / phase
	rep.Layer["bench.gc_pause_ms_per_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / phase
	rep.Layer["bench.goroutines_peak"] = float64(goroutines)

	// Untraced rounds against traced rounds of the same run, the quiet half
	// of each: what recording spans costs in throughput.
	on, off := tracedSplit(ref)
	rep.Layer["bench.trace_overhead_share"] = 1 - pool(ref, quietRounds(ref, on)).rate/pool(ref, quietRounds(ref, off)).rate
	rep.Layer["bench.unattributed_share"] = 1 - float64(tr.covered(wl.opSpan)+tr.covered("bench.verify"))/float64(tracedWall)
}
