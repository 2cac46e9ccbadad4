// Command bench is the repository's one benchmark: four workloads, eight
// end-to-end metrics each, and a traced run that breaks them down by layer.
// It measures every layer from outside — by timing calls into public
// functions and reading snapshots the program already exposes — and is the
// only instrument performance claims are made with (README.md).
//
//	go run . -workload serve-paced -seed 1 -seconds 24 -trace 0
//	go run .            # every workload, one table
//	go run . -aa 3      # A/A: does the same code agree with itself?
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"varade/internal/tensor"
)

// runConfig is one run's shape. The driver sets workload, seed, seconds
// and trace; rounds and warm-up are the constants of spec.go (tests shrink
// them).
type runConfig struct {
	workload string
	seed     uint64
	rounds   int
	roundDur time.Duration
	warmup   time.Duration
	setups   int
	trace    bool
	outDir   string
	speed    *speedometer // the run's reference clock; nil scales nothing
	rss      *rssMeter
}

// environment is recorded with every run so a disagreeing pair of runs can
// be told from a different box or a noisy hour.
type environment struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Trace        bool     `json:"trace"`
	Rounds       int      `json:"rounds"`
	RoundSeconds float64  `json:"round_seconds"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	BoundCPU     int      `json:"bound_cpu"` // the one CPU the run was confined to; -1: unbound
	GoVersion    string   `json:"go_version"`
	GemmKernel   string   `json:"gemm_kernel"`
	QGemmKernel  string   `json:"qgemm_kernel"`
	StealShare   float64  `json:"steal_share"`
	SpeedFactor  float64  `json:"speed_factor"`    // measured phase: median reference tick over nominal (speed.go)
	Flags        []string `json:"flags,omitempty"` // e.g. generator_late
}

// report is everything one run learned.
type report struct {
	Env        environment        `json:"environment"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"` // windows owed a score
	Scored     int64              `json:"scored"`
	Failed     int64              `json:"failed"` // never scored, or scored wrongly
	Wrong      int64              `json:"wrong"`  // of those, wrong outputs; the rest the tier shed under overload, by design
	E2E        map[string]float64 `json:"end_to_end"`
	Raw        map[string]float64 `json:"end_to_end_wall"` // the clock-bound metrics without the reference clock
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	Samples    map[string]int     `json:"samples"`        // sample counts behind the percentiles
	Rounds     []roundSummary     `json:"rounds"`         // each measured round, in order
	ProcessRSS float64            `json:"process_rss_mb"` // VmHWM of the whole process, set-up included
	tracePath  string             // the span file of a traced run
}

type closer func()

// A setupFunc builds one workload instance under dir and returns how to
// run it and how to tear it down.
type setupFunc func(seed uint64, dir string, tr *tracer, parent string) (run func(runConfig, *report, *tracer), teardown closer, err error)

var setups = map[string]setupFunc{
	"edge-single":  closedSetup(setupEdgeSingle),
	"engine-batch": closedSetup(setupEngineBatch),
	"serve-paced":  setupPaced(false),
	"routed-paced": setupPaced(true),
}

// closedSetup adapts a closed-loop workload, which holds nothing to tear down.
func closedSetup(build func(seed uint64, dir string, tr *tracer, parent string) (*closedWorkload, error)) setupFunc {
	return func(seed uint64, dir string, tr *tracer, parent string) (func(runConfig, *report, *tracer), closer, error) {
		wl, err := build(seed, dir, tr, parent)
		return func(c runConfig, r *report, t *tracer) { runClosed(c, wl, r, t) }, func() {}, err
	}
}

func closedLoop(workload string) bool { return workload == "edge-single" || workload == "engine-batch" }

// runWorkload confines the process to one CPU, performs set-up cfg.setups
// times (keeping the last), runs the workload, and assembles the report.
func runWorkload(cfg runConfig) (*report, error) {
	setup, ok := setups[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	nproc := runtime.NumCPU()
	cpu, unbind := bindOneCPU(closedLoop(cfg.workload))
	defer unbind()
	if closedLoop(cfg.workload) {
		defer tensor.SetWorkers(tensor.SetWorkers(1)) // one caller, one compute thread
	}
	rep := &report{
		Env: environment{
			Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
			Rounds: cfg.rounds, RoundSeconds: cfg.roundDur.Seconds(),
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), BoundCPU: cpu, GoVersion: runtime.Version(),
			GemmKernel: tensor.GemmKernelName(), QGemmKernel: tensor.QGemmKernelName(),
		},
		E2E: map[string]float64{}, Raw: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{},
	}
	cfg.rss = &rssMeter{}
	cfg.speed = startSpeedometer()
	defer cfg.speed.stop()
	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up spans are always recorded: a handful per run, and the traced
	// run reads its set-up metrics from them.
	setupTr := &tracer{}
	var run func(runConfig, *report, *tracer)
	var teardown closer
	var took, tookWall []float64
	start := procStart // the first set-up is charged the process's own start-up
	for i := 0; i < cfg.setups; i++ {
		if teardown != nil {
			teardown()
			runtime.GC() // the next set-up starts from a heap without the last one's garbage
		}
		dir := filepath.Join(scratch, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		parent := fmt.Sprintf("bench.setup#%d", i)
		if run, teardown, err = setup(cfg.seed, dir, setupTr, parent); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		now := time.Now()
		setupTr.add("bench.setup", int64(i), "", start, now)
		factor, _ := cfg.speed.over(start, now)
		took = append(took, now.Sub(start).Seconds()/factor) // CPU-bound: reference seconds
		tookWall = append(tookWall, now.Sub(start).Seconds())
		start = now
	}
	defer teardown()
	rep.E2E["setup_s"], rep.Raw["setup_s"] = median(took), median(tookWall)

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	// The heap's free pages go back to the kernel and the high-water mark
	// restarts, so the rounds' own marks are those of serving and not of the
	// trainings of set-up.
	debug.FreeOSMemory()
	cfg.rss.take()
	run(cfg, rep, tr)
	rep.Correct = rep.Wrong == 0 && rep.Attempted > 0
	rep.ProcessRSS = cfg.rss.peak()

	if cfg.trace {
		rep.Layer["bench.process_rss_mb"] = rep.ProcessRSS
		setupLayerMetrics(setupTr, rep)
		if err := probes[cfg.workload](rep.Layer); err != nil {
			return nil, fmt.Errorf("%s probes: %w", cfg.workload, err)
		}
		if rep.tracePath, err = writeTrace(cfg.outDir, cfg.workload, rep.Env, setupTr, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setupLayerMetrics reads the set-up path's per-layer metrics off its spans.
func setupLayerMetrics(tr *tracer, rep *report) {
	rep.Layer["robot.generate_ms"] = tr.medianMs("robot.Generate")
	rep.Layer["modelio.save_ms"] = tr.medianMs("core.Model.Save")
	for _, p := range precisions {
		rep.Layer["modelio.load_ms."+short(p)] = tr.medianMs("core.LoadModel." + short(p))
	}
	rep.Layer["eval.auc_ms"] = tr.medianMs("eval.AUCROC")
	for name, v := range tr.counts {
		rep.Layer[name] = v
	}
}

// value is one metric as the driver's contract spells it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result selects the contract's metrics from a report: every per-layer
// metric when perLayerSet, else every end-to-end metric. A layer the
// workload does not exercise reports 0; an end-to-end metric that was not
// measured is an error.
func (rep *report) result(perLayerSet bool) (resultLine, error) {
	out := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	put := func(name, unit string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = value{v, unit}
		return nil
	}
	if perLayerSet {
		for _, m := range perLayer {
			if err := put(m.Name, m.Unit, rep.Layer[m.Name]); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	for _, m := range endToEnd {
		v, ok := rep.E2E[m.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if err := put(m.Name, m.Unit, v); err != nil {
			return out, err
		}
	}
	return out, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	aa       int
	out      string
	spec     bool
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: every workload, one process each)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&opt.aa, "aa", 0, "run every workload N times as interleaved sets A/B of this binary and compare them")
	flag.StringVar(&opt.out, "out", "out", "directory for traces, reports and scratch files")
	flag.BoolVar(&opt.spec, "spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	opt.trace = trace != 0

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.spec {
		blob, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	if opt.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	switch {
	case opt.aa > 0:
		return runAA(opt)
	case opt.workload == "":
		return runAll(opt)
	}
	rep, err := runWorkload(runConfig{
		workload: opt.workload, seed: opt.seed, rounds: runRounds,
		roundDur: time.Duration(opt.seconds / runRounds * float64(time.Second)),
		warmup:   warmup, setups: setupRepeats, trace: opt.trace, outDir: opt.out,
	})
	if err != nil {
		return err
	}
	line, err := rep.result(opt.trace)
	if err != nil {
		return err
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.out, reportName(opt.workload, opt.seed, opt.trace)), full, 0o644); err != nil {
		return err
	}
	env, err := json.Marshal(rep.Env)
	if err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("environment %s\n", env)
	fmt.Printf("windows attempted %d scored %d failed %d (wrong %d); latency samples %d\n",
		rep.Attempted, rep.Scored, rep.Failed, rep.Wrong, rep.Samples["latency"])
	if !rep.Correct {
		// The result line carries correct=false; the exit code stays 0 so
		// whoever reads the line sees why.
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d windows failed the hard checks\n", opt.workload, rep.Wrong, rep.Attempted)
	}
	fmt.Println(string(last))
	return nil
}

// reportName is the file a run's full report goes to, under -out.
func reportName(workload string, seed uint64, trace bool) string {
	return fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, trace01(trace))
}

func trace01(trace bool) int {
	if trace {
		return 1
	}
	return 0
}
