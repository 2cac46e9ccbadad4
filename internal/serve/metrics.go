package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/tensor"
)

// metrics is the server's telemetry block. Counters live in the
// server's obs.Registry (one per Server, so two servers in one process
// — the normal shape in tests — never share series) and are therefore
// exposed on /metrics with no extra bookkeeping; the JSON snapshot
// reads the same counters, so the two views cannot diverge. Everything
// on a hot path is a lock-free handle resolved once here.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	sessionsTotal  *obs.Counter
	sessionsActive atomic.Int64 // mirrored to a gauge at exposition time
	activeGauge    *obs.Gauge
	samplesIn      *obs.Counter
	windowsScored  *obs.Counter
	batches        *obs.Counter
	scoresDropped  *obs.Counter
	announceFails  *obs.Counter
	// samplesDropped holds admission drops folded in from closed
	// sessions' buses; live buses are summed on top under the server
	// lock (see Server.Metrics) so each drop is counted exactly once in
	// the JSON view. The live per-group series varade_admission_drops_total
	// is fed directly by each bus's drop sink.
	samplesDropped atomic.Int64

	uptimeGauge *obs.Gauge
	rate        *obs.RateEWMA
}

// rateTau is the windowed-throughput time constant: scored_per_sec_1m
// forgets traffic older than a few minutes instead of averaging over
// the server's whole lifetime.
const rateTau = 60 * time.Second

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start:         time.Now(),
		reg:           reg,
		sessionsTotal: reg.Counter("varade_sessions_total", "Sessions accepted since start."),
		activeGauge:   reg.Gauge("varade_sessions_active", "Sessions currently connected."),
		samplesIn:     reg.Counter("varade_samples_in_total", "Samples admitted across all sessions."),
		windowsScored: reg.Counter("varade_windows_scored_total", "Windows scored across all groups."),
		batches:       reg.Counter("varade_batches_total", "Coalesced batches flushed."),
		scoresDropped: reg.Counter("varade_scores_dropped_total", "Scores dropped because a session's outbound queue was full."),
		announceFails: reg.Counter("varade_announce_failures_total", "Heartbeat POSTs to the router that failed (before in-beat retries succeeded or gave up)."),
		uptimeGauge:   reg.Gauge("varade_uptime_seconds", "Seconds since the server started."),
		rate:          obs.NewRateEWMA(rateTau),
	}
	reg.Gauge("varade_kernel_info", "Runtime-dispatched GEMM micro-kernel families (value is always 1).",
		obs.L("gemm", tensor.GemmKernelName()), obs.L("qgemm", tensor.QGemmKernelName())).Set(1)
	return m
}

// groupObs is one serving group's telemetry: the coalesce-latency
// histogram (per group, so groups never contend on a shared lock), the
// four serve-layer stage timers, the batch-size amortisation buckets,
// the group score sketch, and the drop counters. All handles are
// resolved once at group creation; the flusher and session pumps touch
// only atomics.
type groupObs struct {
	coalesce   *obs.Histogram // window-ready → score-emitted, ns
	admitWait  *obs.StageTimer
	fillWait   *obs.StageTimer
	score      *obs.StageTimer
	emit       *obs.StageTimer
	amort      *amortSet
	sketch     *obs.Welford // score distribution across the group's sessions
	busDrops   *obs.Counter // admission drops (bus shedding), live
	scoreDrops *obs.Counter // outbound-queue drops

	// Scheduler plane (varade_sched_*): the closed-loop controller's
	// knob position, latency budget, flush-trigger mix, and housekeeping
	// counters. fillTargetGauge mirrors modelGroup.fillTarget on every
	// recompute so /metrics shows the knob without taking the group lock.
	fillTargetGauge *obs.Gauge
	sloGauge        *obs.Gauge              // effective p99 budget, ns (0 = none)
	flushTrig       [trigCount]*obs.Counter // flushes by trigger
	emptyWakeups    *obs.Counter            // flusher woke to an empty buffer
	targetChanges   *obs.Counter            // learned-target moves applied
	shedTotal       *obs.Counter            // windows shed at admission: age already past the SLO

	// Scoring path (varade_serve_*): stream warm-ups by cause and windows
	// scored whole, each added once per flush.
	warms    [detect.NumWarmCauses]*obs.Counter
	fallback *obs.Counter
}

func newGroupObs(m *metrics, key, precision string, maxBatch int) *groupObs {
	gl := obs.L("group", key)
	pl := obs.L("precision", precision)
	stage := func(name string) *obs.StageTimer {
		return obs.NewStageTimer(m.reg, "varade_serve_stage", "Serve pipeline stage timings.",
			gl, pl, obs.L("stage", name))
	}
	o := &groupObs{
		coalesce:   m.reg.Histogram("varade_coalesce_latency_ns", "Window-ready to score-emitted latency.", gl, pl),
		admitWait:  stage("admit_wait"),
		fillWait:   stage("fill_wait"),
		score:      stage("score"),
		emit:       stage("emit"),
		amort:      newAmortSet(m.reg, maxBatch, gl, pl),
		sketch:     &obs.Welford{},
		busDrops:   m.reg.Counter("varade_admission_drops_total", "Samples shed by session admission queues.", gl, pl),
		scoreDrops: m.reg.Counter("varade_score_drops_total", "Scores shed by session outbound queues.", gl, pl),

		fillTargetGauge: m.reg.Gauge("varade_sched_fill_target", "Current flush fill target (learned or static).", gl, pl),
		sloGauge:        m.reg.Gauge("varade_sched_slo_ns", "Effective p99 coalescing-latency budget in nanoseconds (0 = none).", gl, pl),
		emptyWakeups:    m.reg.Counter("varade_sched_empty_wakeups_total", "Flusher wakeups that found an empty buffer.", gl, pl),
		targetChanges:   m.reg.Counter("varade_sched_target_changes_total", "Learned fill-target moves applied by the controller.", gl, pl),
		shedTotal:       m.reg.Counter("varade_sched_shed_total", "Windows shed at admission because their age already exceeded the SLO budget.", gl, pl),
	}
	for c := range o.warms {
		o.warms[c] = m.reg.Counter("varade_serve_stream_warms_total", "Session streams warmed from their row history, by cause.",
			gl, obs.L("reason", detect.WarmCause(c).String()))
	}
	o.fallback = m.reg.Counter("varade_serve_window_fallback_total", "Windows scored whole because the scorer could not stream them.", gl)
	for t := range o.flushTrig {
		o.flushTrig[t] = m.reg.Counter("varade_sched_flushes_total", "Coalesced flushes by trigger.",
			gl, pl, obs.L("trigger", trigNames[t]))
	}
	return o
}

// amortSet is the per-group 2-D amortisation histogram: per
// log2-batch-size bucket, how many flushes landed there, how many
// windows they carried, and the nanoseconds they spent scoring. The
// ns/window-vs-batch-size curve it measures is the input the
// self-tuning flusher (ROADMAP) consumes.
type amortSet struct {
	uppers  []int // batch_le bucket bounds: 1, 2, 4, ..., maxBatch
	flushes []*obs.Counter
	windows []*obs.Counter
	ns      []*obs.Counter
}

func newAmortSet(reg *obs.Registry, maxBatch int, base ...obs.Label) *amortSet {
	n := bits.Len(uint(maxBatch-1)) + 1 // buckets for 1, 2, 4, ..., ≥maxBatch
	if maxBatch <= 1 {
		n = 1
	}
	a := &amortSet{
		uppers:  make([]int, n),
		flushes: make([]*obs.Counter, n),
		windows: make([]*obs.Counter, n),
		ns:      make([]*obs.Counter, n),
	}
	for i := range a.uppers {
		a.uppers[i] = 1 << i
		lbl := append(append([]obs.Label(nil), base...), obs.L("batch_le", itoa(1<<i)))
		a.flushes[i] = reg.Counter("varade_flush_amort_flushes_total", "Flushes by batch-size bucket.", lbl...)
		a.windows[i] = reg.Counter("varade_flush_amort_windows_total", "Windows scored by batch-size bucket.", lbl...)
		a.ns[i] = reg.Counter("varade_flush_amort_score_ns_total", "Scoring nanoseconds by batch-size bucket.", lbl...)
	}
	return a
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// record accounts one flush of n windows that spent d scoring.
func (a *amortSet) record(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	i := bits.Len(uint(n - 1)) // ceil(log2(n))
	if i >= len(a.uppers) {
		i = len(a.uppers) - 1
	}
	a.flushes[i].Inc()
	a.windows[i].Add(int64(n))
	a.ns[i].Add(d.Nanoseconds())
}

// AmortRow is one populated batch-size bucket of a group's amortisation
// table, as exposed in /metrics.json and consumed by examples/fleet.
type AmortRow struct {
	BatchLE     int     `json:"batch_le"`
	Flushes     int64   `json:"flushes"`
	Windows     int64   `json:"windows"`
	NsPerWindow float64 `json:"ns_per_window"`
}

// rows returns the non-empty buckets in ascending batch-size order.
func (a *amortSet) rows() []AmortRow {
	var out []AmortRow
	for i, f := range a.flushes {
		fl := f.Load()
		if fl == 0 {
			continue
		}
		w := a.windows[i].Load()
		r := AmortRow{BatchLE: a.uppers[i], Flushes: fl, Windows: w}
		if w > 0 {
			r.NsPerWindow = float64(a.ns[i].Load()) / float64(w)
		}
		out = append(out, r)
	}
	return out
}

// StageStats summarises one serve-layer stage of one group for the JSON
// view: per-window p50/p99 plus totals.
type StageStats struct {
	P50Ns   int64 `json:"p50_ns"`
	P99Ns   int64 `json:"p99_ns"`
	Calls   int64 `json:"calls"`
	Windows int64 `json:"windows"`
	TotalNs int64 `json:"total_ns"`
}

func stageStats(t *obs.StageTimer) StageStats {
	return StageStats{
		P50Ns:   t.PerWindow.Quantile(0.50),
		P99Ns:   t.PerWindow.Quantile(0.99),
		Calls:   t.Calls.Load(),
		Windows: t.Windows.Load(),
		TotalNs: t.Ns.Load(),
	}
}

// ScoreDist is a score-distribution summary (group- or session-level).
// MeanPredVariance is set for VARADE-kind models, where the anomaly
// score *is* the variational head's mean predicted variance over
// channels — so the sketch mean doubles as the calibrated-variance
// figure the drift detector wants.
type ScoreDist struct {
	Count            uint64   `json:"count"`
	Mean             float64  `json:"mean"`
	Std              float64  `json:"std"`
	Min              float64  `json:"min"`
	Max              float64  `json:"max"`
	Last             float64  `json:"last"`
	MeanPredVariance *float64 `json:"mean_pred_variance,omitempty"`
}

func scoreDist(s obs.WelfordSnapshot, kind string) *ScoreDist {
	if s.Count == 0 {
		return nil
	}
	d := &ScoreDist{Count: s.Count, Mean: s.Mean, Std: s.Stddev(), Min: s.Min, Max: s.Max, Last: s.Last}
	if kind == "VARADE" {
		mv := s.Mean
		d.MeanPredVariance = &mv
	}
	return d
}

// ModelStatus is one serving group's slice of a metrics snapshot. Since
// protocol v2 a model can be served by several precision-specific groups
// at once; Key names the group, Precision the arithmetic it runs, and
// Derived whether that precision was re-targeted away from the registry
// file's own (a lazily materialised variant). Stages, Amortization and
// ScoreDist carry the group's pipeline telemetry (absent until traffic
// has flowed). StreamWarms counts session streams warmed, by cause (join,
// swap, upgrade, program_replaced), and WindowFallback the windows scored
// whole because the scorer could not stream them.
type ModelStatus struct {
	Key            string                `json:"key"`
	Model          string                `json:"model"`
	Version        int                   `json:"version"`
	Kind           string                `json:"kind"`
	Window         int                   `json:"window"`
	Channels       int                   `json:"channels"`
	Batched        bool                  `json:"batched"`
	Precision      string                `json:"precision"`
	Requested      string                `json:"requested_precision,omitempty"`
	Derived        bool                  `json:"derived"`
	Pending        int                   `json:"pending_windows"`
	StreamWarms    map[string]int64      `json:"stream_warms"`
	WindowFallback int64                 `json:"window_fallback"`
	FillTarget     int                   `json:"fill_target"`
	Sessions       int                   `json:"sessions"`
	Stages         map[string]StageStats `json:"stages,omitempty"`
	Amortization   []AmortRow            `json:"amortization,omitempty"`
	ScoreDist      *ScoreDist            `json:"score_dist,omitempty"`
	Scheduler      *SchedulerStatus      `json:"scheduler,omitempty"`
}

// Metrics is a point-in-time snapshot of the serving state, the payload
// of the /metrics.json endpoint. GemmKernel/QGemmKernel report the
// runtime-dispatched micro-kernel families (avx2, neon or generic) the
// float and int8 GEMM engines resolved at startup, so an operator can
// see at a glance whether a deployment is actually running the SIMD
// lanes. ScoredPerSec is the lifetime average (kept for compatibility);
// ScoredPerSec1m is the windowed EWMA rate, the figure that stays
// meaningful on a long-running server.
type Metrics struct {
	UptimeSeconds  float64       `json:"uptime_seconds"`
	GemmKernel     string        `json:"gemm_kernel"`
	QGemmKernel    string        `json:"qgemm_kernel"`
	ActiveSessions int           `json:"active_sessions"`
	TotalSessions  int           `json:"total_sessions"`
	SamplesIn      int64         `json:"samples_in"`
	WindowsScored  int64         `json:"windows_scored"`
	Batches        int64         `json:"batches"`
	AvgBatchSize   float64       `json:"avg_batch_size"`
	ScoredPerSec   float64       `json:"scored_per_sec"`
	ScoredPerSec1m float64       `json:"scored_per_sec_1m"`
	SamplesDropped int64         `json:"samples_dropped"`
	ScoresDropped  int64         `json:"scores_dropped"`
	P50CoalesceMs  float64       `json:"p50_coalesce_ms"`
	P99CoalesceMs  float64       `json:"p99_coalesce_ms"`
	ServingGroups  int           `json:"serving_groups"`
	DerivedGroups  int           `json:"derived_groups"`
	Models         []ModelStatus `json:"models"`
}

// latencyPercentiles merges every group's coalesce-latency histogram
// and reports top-level p50/p99 in milliseconds — the same figures the
// old global ring produced, now without a shared lock on the hot path.
func (m *metrics) latencyPercentiles() (p50, p99 float64) {
	var merged obs.Histogram
	m.reg.VisitHistograms("varade_coalesce_latency_ns", func(_ []obs.Label, h *obs.Histogram) {
		merged.Merge(h)
	})
	const ms = float64(time.Millisecond)
	return float64(merged.Quantile(0.50)) / ms, float64(merged.Quantile(0.99)) / ms
}

func (m *metrics) snapshot(models []ModelStatus) Metrics {
	now := time.Now()
	up := now.Sub(m.start).Seconds()
	scored := m.windowsScored.Load()
	batches := m.batches.Load()
	avg := 0.0
	if batches > 0 {
		avg = float64(scored) / float64(batches)
	}
	rate := 0.0
	if up > 0 {
		rate = float64(scored) / up
	}
	p50, p99 := m.latencyPercentiles()
	derived := 0
	for _, ms := range models {
		if ms.Derived {
			derived++
		}
	}
	return Metrics{
		UptimeSeconds:  up,
		GemmKernel:     tensor.GemmKernelName(),
		QGemmKernel:    tensor.QGemmKernelName(),
		ActiveSessions: int(m.sessionsActive.Load()),
		TotalSessions:  int(m.sessionsTotal.Load()),
		SamplesIn:      m.samplesIn.Load(),
		WindowsScored:  scored,
		Batches:        batches,
		AvgBatchSize:   avg,
		ScoredPerSec:   rate,
		ScoredPerSec1m: m.rate.Observe(scored, now),
		SamplesDropped: m.samplesDropped.Load(),
		ScoresDropped:  m.scoresDropped.Load(),
		P50CoalesceMs:  p50,
		P99CoalesceMs:  p99,
		ServingGroups:  len(models),
		DerivedGroups:  derived,
		Models:         models,
	}
}
