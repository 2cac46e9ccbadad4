package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"varade"
	"varade/internal/baselines/arlstm"
	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// The machine-readable benchmark suite: `varade-bench -exp bench -json
// BENCH_pr3.json` runs the precision-axis micro-benchmarks and writes one
// JSON object per benchmark, so the perf trajectory is trackable across
// PRs without parsing `go test -bench` text output.
//
// Timing is deliberately noise-robust for shared/1-core CI boxes: each
// benchmark runs a fixed iteration count for several rounds and records
// the fastest round (scheduler preemption and neighbour load only ever
// slow a round down, so the minimum is the least-contended estimate).

// BenchResult is one benchmark's machine-readable record.
type BenchResult struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	WindowsPerSec float64 `json:"windows_per_sec,omitempty"`
	Iterations    int     `json:"iterations"`
	Rounds        int     `json:"rounds"`
	// StageNsPerWindow breaks the op down by compute stage (quantize,
	// pack, gemm, requant) as ns/window, sampled from the process-global
	// stage timers over one profiled run. Absent in pre-PR-7 baselines
	// and for benchmarks without a windows metric.
	StageNsPerWindow map[string]float64 `json:"stage_ns_per_window,omitempty"`
	// P50/P99CoalesceMs are the server-measured coalesce-latency
	// percentiles for serving lanes with bursty admission. Informational:
	// -diff renders them but never gates on them (latency under sleeps is
	// too host-sensitive for a hard threshold). Absent elsewhere.
	P50CoalesceMs float64 `json:"p50_coalesce_ms,omitempty"`
	P99CoalesceMs float64 `json:"p99_coalesce_ms,omitempty"`
	// Handoffs/HandoffP99Ms are the failover lane's hand-off plane: how
	// many sessions the router re-placed after the mid-run backend kill
	// and the router-measured detection-to-warmed p99. Informational like
	// the coalesce percentiles: -diff renders them but never gates (dial
	// and scheduler costs dominate and are host-sensitive). Absent
	// elsewhere.
	Handoffs     int64   `json:"handoffs,omitempty"`
	HandoffP99Ms float64 `json:"handoff_p99_ms,omitempty"`
}

const (
	benchRounds      = 5
	benchTargetRound = 400 * time.Millisecond
)

// snapStages folds the process-global compute-stage timers into
// per-stage {ns, windows} totals (summed over precisions — a single
// benchmark case only moves one precision's timers).
func snapStages() map[string][2]int64 {
	out := make(map[string][2]int64)
	for _, st := range obs.StagesSnapshot() {
		cur := out[st.Stage]
		cur[0] += st.Ns
		cur[1] += st.Windows
		out[st.Stage] = cur
	}
	return out
}

// stageProfile runs fn once and attributes the compute-stage time that
// accrued to it, as ns/window per stage. Stages the run never touched
// produce no delta and stay out of the map; nil when nothing moved.
func stageProfile(fn func(iters int)) map[string]float64 {
	before := snapStages()
	fn(1)
	after := snapStages()
	var out map[string]float64
	for stage, a := range after {
		b := before[stage]
		if dn, dw := a[0]-b[0], a[1]-b[1]; dn > 0 && dw > 0 {
			if out == nil {
				out = make(map[string]float64)
			}
			out[stage] = float64(dn) / float64(dw)
		}
	}
	return out
}

// benchCase is one suite entry.
type benchCase struct {
	name    string
	windows int // per op, 0 for non-streaming benchmarks
	fn      func(iters int)
}

// measureSuite times every case over benchRounds interleaved rounds
// (case A round 1, case B round 1, …, case A round 2, …) and keeps each
// case's fastest round. Interleaving matters on shared hosts: slow spells
// hit neighbouring cases equally instead of biasing whichever case ran
// during the throttled window, so cross-case ratios stay meaningful.
func measureSuite(cases []benchCase) []BenchResult {
	iters := make([]int, len(cases))
	allocs := make([]int64, len(cases))
	best := make([]time.Duration, len(cases))
	for i, c := range cases {
		c.fn(1) // warm caches, pools and lazily compiled programs
		start := time.Now()
		c.fn(1)
		per := time.Since(start)
		iters[i] = 1
		if per > 0 {
			iters[i] = int(benchTargetRound / per)
		}
		if iters[i] < 1 {
			iters[i] = 1
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c.fn(1)
		runtime.ReadMemStats(&ms1)
		allocs[i] = int64(ms1.Mallocs - ms0.Mallocs)
		best[i] = 1<<62 - 1
	}
	for r := 0; r < benchRounds; r++ {
		for i, c := range cases {
			t0 := time.Now()
			c.fn(iters[i])
			if d := time.Since(t0); d < best[i] {
				best[i] = d
			}
		}
	}
	results := make([]BenchResult, len(cases))
	for i, c := range cases {
		res := BenchResult{
			Name:        c.name,
			NsPerOp:     float64(best[i].Nanoseconds()) / float64(iters[i]),
			AllocsPerOp: allocs[i],
			Iterations:  iters[i],
			Rounds:      benchRounds,
		}
		if c.windows > 0 && res.NsPerOp > 0 {
			res.WindowsPerSec = float64(c.windows) * 1e9 / res.NsPerOp
		}
		results[i] = res
	}
	return results
}

// fleetMixedBench is the serving-layer suite entry: one float64 registry
// entry, 64 persistent sessions negotiating float64/float32/int8
// round-robin (protocol v2), windows coalesced per precision-specific
// group. Each op replays every device's stream through its live session.
// With burst > 0 admission turns bursty: every session sends burst rows,
// idles gap, repeats — the closed-loop scheduler's deadline lane.
type fleetMixedBench struct {
	sessions, steps int
	w               int
	burst           int
	gap             time.Duration
	regDir          string
	srvs            []*serve.Server
	srv             *serve.Server // srvs[0], for Metrics()
	rt              *route.Router
	clients         []*serve.Client
	rows            [][][]float64
	primed          bool
}

func newFleetMixedBench(seed uint64) (*fleetMixedBench, error) {
	return newFleetBench(seed, 0, 0, 0, 1)
}

// newFleetBurstyBench is the FleetServeBursty64 lane: 12-row admission
// bursts separated by 1ms idle gaps under a 5ms p99 SLO, with a hopeless
// 50ms fallback flush interval — every latency bound the fleet sees must
// come from the SLO deadline scheduler, not the ticker it replaced.
func newFleetBurstyBench(seed uint64) (*fleetMixedBench, error) {
	return newFleetBench(seed, 12, time.Millisecond, 5*time.Millisecond, 1)
}

// newFleetRoutedBench is the FleetServeRouted64 lane: the same mixed
// fleet, but through a varade-router fronting two backend servers over
// one registry — each precision's sessions consistent-hash to one
// backend, so the lane prices the relay hop plus the two-way split.
func newFleetRoutedBench(seed uint64) (*fleetMixedBench, error) {
	return newFleetBench(seed, 0, 0, 0, 2)
}

// newFleetFailoverBench is the FleetServeFailover64 lane's fleet: the
// routed shape again — the kill and the hand-off happen in runFailover,
// not here.
func newFleetFailoverBench(seed uint64) (*fleetMixedBench, error) {
	return newFleetBench(seed, 0, 0, 0, 2)
}

func newFleetBench(seed uint64, burst int, gap, slo time.Duration, backends int) (*fleetMixedBench, error) {
	const (
		sessions = 64
		steps    = 72
		channels = 17
	)
	model, err := core.New(core.EdgeConfig(channels))
	if err != nil {
		return nil, err
	}
	f := &fleetMixedBench{sessions: sessions, steps: steps, w: model.WindowSize(), burst: burst, gap: gap}
	// Any failure below must not strand the temp registry, the server or
	// already-dialed sessions.
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	f.regDir, err = os.MkdirTemp("", "varade-bench-registry-")
	if err != nil {
		return nil, err
	}
	reg, err := serve.OpenRegistry(f.regDir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.Register("varade", model); err != nil {
		return nil, err
	}
	flush := time.Millisecond
	if slo > 0 {
		flush = 50 * time.Millisecond // the deadline must carry the latency, not the fallback
	}
	if backends < 1 {
		backends = 1
	}
	addrs := make([]string, backends)
	for i := 0; i < backends; i++ {
		srv, err := serve.NewServer(serve.Config{
			Registry:      reg,
			DefaultModel:  "varade",
			FlushInterval: flush,
			SLOP99:        slo,
			QueueDepth:    steps + 8, // score every window
		})
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		if addrs[i], err = srv.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	f.srv = f.srvs[0]
	addr := addrs[0]
	if backends > 1 {
		f.rt = route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
		if addr, err = f.rt.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
		for i, baddr := range addrs {
			f.rt.Register(route.Announcement{ID: fmt.Sprintf("b%d", i+1), Addr: baddr})
		}
	}
	precisions := []string{varade.PrecisionFloat64, varade.PrecisionFloat32, varade.PrecisionInt8}
	f.clients = make([]*serve.Client, sessions)
	for id := range f.clients {
		cl, err := serve.DialWith(context.Background(), addr, "", channels,
			stream.SessionCaps{Precision: precisions[id%len(precisions)]})
		if err != nil {
			return nil, err
		}
		f.clients[id] = cl
	}
	f.rows = make([][][]float64, sessions)
	for id := range f.rows {
		rng := tensor.NewRNG(seed + uint64(1000+id))
		f.rows[id] = make([][]float64, steps)
		for r := range f.rows[id] {
			row := make([]float64, channels)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			f.rows[id][r] = row
		}
	}
	ok = true
	return f, nil
}

// run replays every device stream iters times through the live sessions.
func (f *fleetMixedBench) run(iters int) {
	for it := 0; it < iters; it++ {
		expect := f.steps
		if !f.primed {
			expect = f.steps - f.w + 1 // first pass pays the ring warmup
			f.primed = true
		}
		var wg sync.WaitGroup
		for id := range f.clients {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cl := f.clients[id]
				step := f.burst
				if step <= 0 {
					step = f.steps
				}
				for off := 0; off < f.steps; off += step {
					end := off + step
					if end > f.steps {
						end = f.steps
					}
					if err := cl.Send(f.rows[id][off:end]); err != nil {
						panic(err)
					}
					if f.gap > 0 && end < f.steps {
						time.Sleep(f.gap)
					}
				}
				for got := 0; got < expect; {
					scores, err := cl.ReadScores()
					if err != nil {
						panic(err)
					}
					got += len(scores)
				}
			}(id)
		}
		wg.Wait()
	}
}

// runFailover is the FleetServeFailover64 op: every session streams the
// first half of its rows in 4-row batches, a barrier force-kills the
// backend serving session 0 (expired-context Shutdown: no drain, live
// connections torn), then the fleet finishes, says Bye and reads scores
// to end-of-stream. The orphaned sessions ride the router's hand-off to
// the survivor; sessions on the survivor are the control group. Scores
// are counted as received — windows in flight past the replay ring may
// legitimately be lost to the crash, so the lane prices survival
// throughput, not completeness. One-shot: a backend only dies once per
// fleet.
func (f *fleetMixedBench) runFailover() (received int64, elapsed time.Duration) {
	victim := f.srvs[0]
	if f.clients[0].Welcome().Backend == "b2" {
		victim = f.srvs[1]
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown force-closes instead of draining

	var sent, wg sync.WaitGroup
	sent.Add(len(f.clients))
	killed := make(chan struct{})
	go func() {
		sent.Wait()
		victim.Shutdown(dead)
		close(killed)
	}()

	got := make([]int64, len(f.clients))
	start := time.Now()
	for id := range f.clients {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := f.clients[id]
			send := func(part [][]float64) {
				for off := 0; off < len(part); off += 4 {
					end := off + 4
					if end > len(part) {
						end = len(part)
					}
					if err := cl.Send(part[off:end]); err != nil {
						panic(err)
					}
				}
			}
			mid := f.steps / 2
			send(f.rows[id][:mid])
			sent.Done()
			<-killed
			send(f.rows[id][mid:])
			if err := cl.Bye(); err != nil {
				panic(err)
			}
			for {
				scores, err := cl.ReadScores()
				got[id] += int64(len(scores))
				if err != nil {
					break
				}
			}
		}(id)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, n := range got {
		received += n
	}
	return received, elapsed
}

func (f *fleetMixedBench) close() {
	for _, cl := range f.clients {
		if cl != nil {
			cl.Bye()
			cl.Close()
		}
	}
	if f.rt != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.rt.Shutdown(ctx)
		cancel()
	}
	for _, srv := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
	if f.regDir != "" {
		os.RemoveAll(f.regDir)
	}
}

func runBenchSuite(jsonPath string, seed uint64) error {
	// A small fitted model shared by the score-stream benchmarks: seeded
	// initialisation scores at the same cost as a trained one.
	const channels = 17
	model, err := core.New(core.EdgeConfig(channels))
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(seed)
	// 16384 steps ≈ 2.2 MB of float64 stream: comfortably past the L2 a
	// 1-core container gets, so the float64 path pays its full memory
	// bandwidth and the precision comparison is stable run to run instead
	// of hinging on cache-residency luck.
	series := tensor.New(16384, channels)
	sd := series.Data()
	for i := range sd {
		sd[i] = rng.NormFloat64()
	}
	windows := series.Dim(0)

	scoreStream := func(precision string) func(iters int) {
		return func(iters int) {
			if err := model.SetPrecision(precision); err != nil {
				panic(err)
			}
			for i := 0; i < iters; i++ {
				detect.ScoreSeriesBatched(model, series)
			}
		}
	}

	// The AR-LSTM baseline rides the small-product TransB fast path: its
	// per-step gate GEMMs are far below the packed-engine threshold, so
	// this case tracks the small-matrix kernels the VARADE cases never
	// exercise. A shorter stream keeps the recurrent cost in budget.
	lstm, err := arlstm.New(arlstm.EdgeConfig(channels))
	if err != nil {
		return err
	}
	lstmSeries := series.SliceRows(0, 4096)
	lstmWindows := lstmSeries.Dim(0)

	// The paper-scale model (T=512, 86 channels, 4.5 M parameters) one
	// window at a time at float32: the Table 2 inference-frequency loop,
	// whose cost is streaming 17 MB of weights per window, not arithmetic.
	paper, err := core.New(core.PaperConfig(varade.NumChannels))
	if err != nil {
		return err
	}
	if err := paper.SetPrecision(varade.PrecisionFloat32); err != nil {
		return err
	}
	paperWindow := tensor.RandNormal(tensor.NewRNG(seed+1), 0, 1, paper.WindowSize(), varade.NumChannels)

	const mmN = 128
	x64 := tensor.RandNormal(tensor.NewRNG(1), 0, 1, mmN, mmN)
	y64 := tensor.RandNormal(tensor.NewRNG(2), 0, 1, mmN, mmN)
	dst64 := tensor.New(mmN, mmN)
	x32 := tensor.Convert[float32](x64)
	y32 := tensor.Convert[float32](y64)
	dst32 := tensor.NewOf[float32](mmN, mmN)

	suite := []benchCase{
		{"MatMul128", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulInto(dst64, x64, y64)
			}
		}},
		{"MatMul128F32", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulInto(dst32, x32, y32)
			}
		}},
		{"MatMulTransB128", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulTransBInto(dst64, x64, y64)
			}
		}},
		{"MatMulTransB128F32", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulTransBInto(dst32, x32, y32)
			}
		}},
		{"Figure3ScoreStream", windows, scoreStream(varade.PrecisionFloat64)},
		{"Figure3ScoreStreamF32", windows, scoreStream(varade.PrecisionFloat32)},
		{"Figure3ScoreStreamInt8", windows, scoreStream(varade.PrecisionInt8)},
		{"Table2PaperScoreF32", 1, func(n int) {
			for i := 0; i < n; i++ {
				paper.Score(paperWindow)
			}
		}},
		{"ARLSTMScoreStream", lstmWindows, func(n int) {
			for i := 0; i < n; i++ {
				detect.ScoreSeriesBatched(lstm, lstmSeries)
			}
		}},
	}

	results := measureSuite(suite)
	// One extra profiled run per streaming case attributes the measured
	// time to pipeline stages — after timing, so the stage-timer atomics
	// (negligible as they are) can't colour the headline numbers.
	for i, c := range suite {
		if c.windows > 0 {
			results[i].StageNsPerWindow = stageProfile(c.fn)
		}
	}

	// The serving benchmark runs as its own phase: the live fleet server
	// (per-group flusher tickers, 64 session goroutine trios) must not
	// steal cycles from the single-threaded numeric cases above.
	fleet, err := newFleetMixedBench(seed)
	if err != nil {
		return err
	}
	fleetResults := measureSuite([]benchCase{
		{"FleetServeMixed64", fleet.sessions * fleet.steps, fleet.run},
	})
	fleetResults[0].StageNsPerWindow = stageProfile(fleet.run)
	results = append(results, fleetResults...)
	fleet.close()

	// The routed lane: the identical mixed fleet through a varade-router
	// over two backends. Rendered by -diff/-trend for the sharding
	// trajectory; never gated (the relay hop's cost is host-sensitive).
	routed, err := newFleetRoutedBench(seed)
	if err != nil {
		return err
	}
	routedResults := measureSuite([]benchCase{
		{"FleetServeRouted64", routed.sessions * routed.steps, routed.run},
	})
	results = append(results, routedResults...)
	routed.close()

	// The bursty-admission lane: throughput is informational (the op
	// includes deliberate idle gaps); the numbers that matter are the
	// server-measured coalesce-latency percentiles against the 5ms SLO.
	bursty, err := newFleetBurstyBench(seed)
	if err != nil {
		return err
	}
	burstyResults := measureSuite([]benchCase{
		{"FleetServeBursty64", bursty.sessions * bursty.steps, bursty.run},
	})
	bm := bursty.srv.Metrics()
	burstyResults[0].P50CoalesceMs = bm.P50CoalesceMs
	burstyResults[0].P99CoalesceMs = bm.P99CoalesceMs
	results = append(results, burstyResults...)
	bursty.close()

	// The failover lane: the routed fleet again, but the backend serving
	// session 0 is force-killed at the half-way barrier and every
	// orphaned session rides the router's transparent hand-off to the
	// survivor. One-shot — a backend only dies once per fleet — so the
	// figures are a single survival sample rather than a min-of-rounds
	// estimate: windows/s counts scores actually received across the
	// kill, and the hand-off columns come from the router's own counters.
	fo, err := newFleetFailoverBench(seed)
	if err != nil {
		return err
	}
	foScores, foElapsed := fo.runFailover()
	foHandoffs, _, foP99 := fo.rt.HandoffStats()
	foRes := BenchResult{
		Name:         "FleetServeFailover64",
		NsPerOp:      float64(foElapsed.Nanoseconds()),
		Iterations:   1,
		Rounds:       1,
		Handoffs:     foHandoffs,
		HandoffP99Ms: float64(foP99) / 1e6,
	}
	if foElapsed > 0 {
		foRes.WindowsPerSec = float64(foScores) / foElapsed.Seconds()
	}
	results = append(results, foRes)
	fo.close()
	if foHandoffs < 1 {
		return fmt.Errorf("failover lane recorded %d hand-offs, want >= 1 — the kill missed every session", foHandoffs)
	}
	// Which micro-kernel family produced these numbers: cross-runner
	// comparisons are only meaningful on the same dispatch.
	fmt.Printf("gemm kernel: %s, qgemm kernel: %s\n", tensor.GemmKernelName(), tensor.QGemmKernelName())
	for _, res := range results {
		if res.WindowsPerSec > 0 {
			fmt.Printf("%-24s %12.0f ns/op %8d allocs/op %12.0f windows/s\n",
				res.Name, res.NsPerOp, res.AllocsPerOp, res.WindowsPerSec)
		} else {
			fmt.Printf("%-24s %12.0f ns/op %8d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)
		}
		if res.P99CoalesceMs > 0 {
			fmt.Printf("  · %-20s %12.3f ms p50 %10.3f ms p99\n", "coalesce latency", res.P50CoalesceMs, res.P99CoalesceMs)
		}
		if res.Handoffs > 0 {
			fmt.Printf("  · %-20s %12d sessions %9.3f ms p99\n", "hand-off", res.Handoffs, res.HandoffP99Ms)
		}
		if len(res.StageNsPerWindow) > 0 {
			stages := make([]string, 0, len(res.StageNsPerWindow))
			for s := range res.StageNsPerWindow {
				stages = append(stages, s)
			}
			sort.Strings(stages)
			for _, s := range stages {
				fmt.Printf("  · %-20s %12.0f ns/window\n", s, res.StageNsPerWindow[s])
			}
		}
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"gemm_kernel":  tensor.GemmKernelName(),
			"qgemm_kernel": tensor.QGemmKernelName(),
			"benchmarks":   results,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}
