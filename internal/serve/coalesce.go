package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"varade/internal/baselines/ae"
	"varade/internal/baselines/arlstm"
	"varade/internal/baselines/gbrf"
	"varade/internal/baselines/iforest"
	"varade/internal/baselines/knn"
	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/stream"
)

// windowMeta routes one queued window's score back to its session.
// admitNs is the admission→enqueue wait computed when the window's row was
// queued (-1 when the sample carried no admission stamp); it is recorded
// at flush so the pump path pays no telemetry atomics. A shed window's row
// still extends the stream, but its score is dropped.
type windowMeta struct {
	index   int
	ready   time.Time
	admitNs int64
	shed    bool
}

// rowQueue is one session's admitted rows awaiting a flush, time-major,
// and one entry per window among them — a row completes a window once the
// session has admitted W−1 rows before it.
type rowQueue struct {
	rows []float64
	meta []windowMeta
}

// modelGroup is the serving unit: every session scoring with the same
// model shares one group, and the group's flusher scores, in one pass per
// tick, every window that became ready across those sessions. Latency is
// bounded by the flush deadline; the work per window is what the model's
// own stream program needs for it.
//
// Sessions hand the group rows, not windows: each admitted sample is
// appended to its session's row queue (sessions fill one queue while the
// flusher scores the other, so scoring never blocks admission). A flush is
// one detect.Feed.Extend per pending session over that session's own
// stream — against the model's shared compiled program, with no window
// tensor, copy or permute; a detector that cannot stream scores the
// completed windows whole inside the feed. Every precision takes the same
// path: the feed hands the rows to the stream of whatever precision the
// group's scorer runs. When producers outrun the flusher and maxBatch
// windows are queued, session pumps wait on the group's condition variable
// — backpressure that surfaces upstream as the per-session admission queue
// (a stream.Bus) dropping its oldest samples.
//
// Since protocol v2, groups are precision-specific: sessions negotiating
// "int8" against a float64 registry entry land in a derived group whose
// scorer was re-targeted at load time, keyed "name@vN:int8" so they never
// share arithmetic with the float64 sessions of the same entry.
type modelGroup struct {
	srv     *Server
	key     string // group map key, e.g. "varade", "varade@v2:int8"
	name    string
	version int    // concrete version currently loaded
	pinned  bool   // session asked for an explicit version: exempt from Reload
	reqPrec string // negotiated precision this group serves ("" = the file's own)
	derived bool   // reqPrec re-targeted the scorer away from the file's precision
	kind    string
	w, c    int

	maxBatch int

	// obs holds the group's telemetry handles (latency histogram, stage
	// timers, amortisation buckets, score sketch, drop counters) —
	// resolved once at construction, lock-free thereafter.
	obs *groupObs

	mu   sync.Mutex
	cond *sync.Cond
	// fillTarget is the queued-window level that triggers an immediate
	// flush kick, before the deadline: the controller's learned target (or
	// the server's static per-precision table until one is learned) capped
	// by the smallest SessionCaps.MaxBatch a live session negotiated. The
	// queues still accept up to maxBatch windows between flushes.
	fillTarget int
	// sched is the closed-loop controller state: the learned-target
	// policy, the effective SLO budget, and the windowed read-back
	// cursors over the group's own telemetry (see controller.go).
	sched      groupSched
	reqBatches map[*session]int // live sessions' requested MaxBatch (> 0 only)
	sc         detect.Scorer
	caps       detect.Capabilities
	gen        uint64     // counts scorer swaps; a feed made under an older one is re-targeted
	queued     []*session // sessions with rows queued, in the order they queued
	spare      []*session // the flusher's list, swapped with queued at each flush
	n          int        // windows queued across sessions, shed ones included
	oldest     time.Time  // ready time of the oldest queued window
	sessions   int
	closed     bool

	// kick asks the flusher to flush now (fill target reached, tail
	// drain, backpressure); wake tells a parked flusher the queues went
	// from no window to one so it can arm that window's deadline.
	kick chan struct{}
	wake chan struct{}
}

func newModelGroup(srv *Server, key, name string, version int, pinned bool, reqPrec string, derived bool, kind string, sc detect.Scorer, channels int) *modelGroup {
	g := &modelGroup{
		srv:      srv,
		key:      key,
		name:     name,
		version:  version,
		pinned:   pinned,
		reqPrec:  reqPrec,
		derived:  derived,
		kind:     kind,
		w:        sc.WindowSize(),
		c:        channels,
		maxBatch: srv.cfg.MaxBatch,
		sc:       sc,
		caps:     sc.Capabilities(),
		kick:     make(chan struct{}, 1),
		wake:     make(chan struct{}, 1),
	}
	g.obs = newGroupObs(srv.met, key, g.caps.Precision, g.maxBatch)
	g.cond = sync.NewCond(&g.mu)
	g.reqBatches = make(map[*session]int)
	g.sched.policy.maxBatch = g.maxBatch
	g.sched.reqSLO = make(map[*session]time.Duration)
	g.sched.amortCur = newAmortCursors(g.obs.amort)
	g.sched.scoreCur = obs.NewStageCursor(g.obs.score)
	g.sched.emitCur = obs.NewStageCursor(g.obs.emit)
	g.recomputeFillTargetLocked()
	g.recomputeSLOLocked()
	return g
}

// add queues a run of consecutive admitted samples of sess, the first of
// them the session's sample number index, for the next flush. Each sample
// whose row completes a window is owed a score; the session has already
// counted those as outstanding. add blocks only while maxBatch windows are
// queued and the flusher is still scoring. The gap from a sample's
// admission stamp to its queueing is the admit_wait stage (reader → bus
// queue → pump → row queue).
func (g *modelGroup) add(sess *session, batch []admitted, index int) {
	ready := time.Now()
	wake := false
	g.mu.Lock()
	for i, a := range batch {
		isWindow := index+i >= g.w-1
		for isWindow && g.n >= g.maxBatch && !g.closed {
			g.kickNow()
			g.cond.Wait()
			ready = time.Now()
		}
		if g.closed {
			// The server is past its drain point; account the window as
			// emitted so the session can finish tearing down.
			if isWindow {
				sess.scoreDone()
			}
			continue
		}
		q := &sess.queue
		if len(q.rows) == 0 {
			g.queued = append(g.queued, sess)
		}
		q.rows = append(q.rows, a.sample...)
		if !isWindow {
			continue
		}
		m := windowMeta{index: index + i, ready: ready, admitNs: -1}
		if !a.at.IsZero() {
			m.admitNs = ready.Sub(a.at).Nanoseconds()
		}
		// Admission-plane shedding (opt-in): a window whose age already
		// exceeds the group's SLO budget is doomed — any flush it joins
		// emits past its deadline — so its score is dropped rather than
		// queued as owed work ahead of windows that can still make their
		// deadline. Its row stays queued: the session's stream needs it
		// for the windows after it. Gated on Config.ShedAdmission because
		// it breaks the every-window-is-owed-a-score contract exact-count
		// consumers rely on; without the gate every window is scored
		// eventually, however late.
		if g.srv.cfg.ShedAdmission && g.sched.slo > 0 && m.admitNs > int64(g.sched.slo) {
			g.obs.shedTotal.Inc()
			m.shed = true
			sess.scoreDone()
		}
		q.meta = append(q.meta, m)
		if g.n == 0 {
			g.oldest = ready
			wake = true
		}
		g.n++
	}
	kick := g.n >= g.fillTarget
	g.mu.Unlock()
	if wake {
		// First queued window: un-park the flusher so it arms this
		// window's deadline.
		g.wakeNow()
	}
	if kick {
		g.kickNow()
	}
}

// recomputeFillTargetLocked re-derives the group's flush trigger from
// the controller's current base target (learned knee or static
// per-precision default) and the live sessions' negotiated frame caps:
// a session that asked for at most B scores per frame gets batches
// flushed at B, so its negotiated cap bounds its coalescing latency
// instead of only splitting outbound frames.
func (g *modelGroup) recomputeFillTargetLocked() {
	t := g.currentTargetLocked()
	for _, b := range g.reqBatches {
		if b < t {
			t = b
		}
	}
	g.fillTarget = max(1, min(t, g.maxBatch))
	g.obs.fillTargetGauge.Set(float64(g.fillTarget))
}

// sessionJoined/sessionLeft maintain the negotiated-cap view the fill
// target and the latency budget derive from. reqBatch ≤ 0 means the
// session did not request a frame cap; reqSLO ≤ 0 means it did not
// request a latency budget.
func (g *modelGroup) sessionJoined(sess *session, reqBatch int, reqSLO time.Duration) {
	g.mu.Lock()
	g.sessions++
	if reqBatch > 0 {
		g.reqBatches[sess] = reqBatch
	}
	if reqSLO > 0 {
		g.sched.reqSLO[sess] = reqSLO
	}
	g.recomputeFillTargetLocked()
	g.recomputeSLOLocked()
	g.mu.Unlock()
}

func (g *modelGroup) sessionLeft(sess *session) {
	g.mu.Lock()
	g.sessions--
	delete(g.reqBatches, sess)
	delete(g.sched.reqSLO, sess)
	g.recomputeFillTargetLocked()
	g.recomputeSLOLocked()
	g.mu.Unlock()
}

// kickNow nudges the flusher without blocking.
func (g *modelGroup) kickNow() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// wakeNow un-parks the flusher without blocking.
func (g *modelGroup) wakeNow() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// run is the group's flusher loop. It fires at min(fill target reached,
// oldest admitted window's deadline): a kick means the fill target was
// hit and the batch is worth scoring now; otherwise a one-shot timer is
// armed to the oldest pending window's latency budget (the negotiated
// p99 SLO minus the smoothed flush cost, or the flush interval when no
// SLO is in force), so no ready window ever waits past its deadline.
// An empty group parks with the timer disarmed — no free-running tick —
// until an admission's wake re-arms it. On context cancellation it
// performs one final drain so shutdown never strands windows.
func (g *modelGroup) run(ctx context.Context) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		armed = false
	}
	defer disarm()
	for {
		disarm()
		var deadline <-chan time.Time
		g.mu.Lock()
		if g.n > 0 {
			d := time.Until(g.oldest.Add(g.deadlineBudgetLocked()))
			g.mu.Unlock()
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			armed = true
			deadline = timer.C
		} else {
			g.mu.Unlock()
		}
		select {
		case <-ctx.Done():
			g.flush(trigDrain)
			g.mu.Lock()
			g.closed = true
			g.mu.Unlock()
			g.cond.Broadcast()
			return
		case <-g.kick:
			g.flush(trigFill)
		case <-g.wake:
			// A window was queued: loop around and arm its deadline.
		case <-deadline:
			armed = false
			g.flush(trigDeadline)
		}
	}
}

// flush takes every session's queued rows and extends each session's
// stream by them — one Feed.Extend per session, with the scorer the group
// holds now — then routes each owed score to its session. For float64
// groups scores are bit-identical to the per-device path: a feed scores
// each window exactly as detect.ScoreSeries does, however the rows were
// split across flushes. Only the group's flusher calls flush: the feeds
// are its own.
func (g *modelGroup) flush(trigger int) {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		if trigger != trigDrain {
			// A kick or deadline raced an earlier flush that already
			// emptied the queues. During genuine idle this stays at zero:
			// the parked flusher never wakes on its own.
			g.obs.emptyWakeups.Inc()
		}
		return
	}
	g.obs.flushTrig[trigger].Inc()
	batch := g.queued
	g.queued, g.spare = g.spare[:0], batch
	for _, sess := range batch {
		sess.queue, sess.scoring = sess.scoring, sess.queue
	}
	g.n = 0
	sc, gen := g.sc, g.gen
	g.mu.Unlock()
	g.cond.Broadcast()

	scoreStart := time.Now()
	var paths detect.FeedCounts
	for _, sess := range batch {
		if sess.feed == nil {
			sess.feed = detect.NewFeed(sc, g.c)
		} else if sess.gen != gen {
			sess.feed.Retarget(sc)
		}
		sess.gen = gen
		sess.scores = sess.feed.Extend(sess.scores[:0], sess.scoring.rows)
		c := sess.feed.Counts()
		for i := range c.Warms {
			paths.Warms[i] += c.Warms[i] - sess.paths.Warms[i]
		}
		paths.Fallback += c.Fallback - sess.paths.Fallback
		sess.paths = c
	}
	now := time.Now()
	scoreD := now.Sub(scoreStart)

	// The per-window loop keeps only histogram records hot (one atomic
	// triple each); the counter halves of the fill_wait/admit_wait stage
	// timers are summed locally and added once per flush, and each
	// session's scores fold into the sketches under one lock.
	var n, fillNs, admitNs, admitN int64
	for _, sess := range batch {
		q := &sess.scoring
		if len(sess.scores) != len(q.meta) {
			panic(fmt.Sprintf("serve: feed scored %d windows of %d queued", len(sess.scores), len(q.meta)))
		}
		scores := sess.scores[:0]
		for i := range q.meta {
			m := &q.meta[i]
			if m.shed {
				continue
			}
			// fill_wait: how long the window sat queued before scoring
			// began; coalesce latency: ready → emitted, the end-to-end
			// figure the old global ring measured, now per group.
			fw := scoreStart.Sub(m.ready).Nanoseconds()
			if fw < 0 {
				fw = 0
			}
			fillNs += fw
			g.obs.fillWait.PerWindow.Record(fw)
			g.obs.coalesce.Record(now.Sub(m.ready).Nanoseconds())
			if m.admitNs >= 0 {
				admitNs += m.admitNs
				admitN++
				g.obs.admitWait.PerWindow.Record(m.admitNs)
			}
			v := sess.scores[i]
			scores = append(scores, v)
			sess.emit(stream.Score{Index: m.index, Value: v})
		}
		g.obs.sketch.AddBatch(scores)
		sess.sketch.AddBatch(scores)
		n += int64(len(scores))
		q.rows, q.meta = q.rows[:0], q.meta[:0]
	}
	for i, k := range paths.Warms {
		if k > 0 {
			g.obs.warms[i].Add(k)
		}
	}
	if paths.Fallback > 0 {
		g.obs.fallback.Add(paths.Fallback)
	}
	clear(batch) // the spare list must not keep departed sessions alive
	if n == 0 {
		return // every window was shed
	}
	g.obs.score.Observe(scoreD, int(n))
	g.obs.amort.record(int(n), scoreD)
	g.obs.fillWait.Ns.Add(fillNs)
	g.obs.fillWait.Calls.Inc()
	g.obs.fillWait.Windows.Add(n)
	if admitN > 0 {
		g.obs.admitWait.Ns.Add(admitNs)
		g.obs.admitWait.Calls.Inc()
		g.obs.admitWait.Windows.Add(admitN)
	}
	g.obs.emit.Observe(time.Since(now), int(n))
	g.srv.met.windowsScored.Add(n)
	g.srv.met.batches.Add(1)

	// Controller tail: account the freshly scored windows and, once a
	// full evaluation window has accrued, read back the amortisation
	// curve and let the policy adjust the fill target.
	g.mu.Lock()
	g.schedAfterFlushLocked(int(n), trigger)
	g.mu.Unlock()
}

// checkGeometry verifies a replacement scorer keeps the group's (W, C) —
// sessions keep their row history across swaps and warm the new scorer's
// stream from it.
func (g *modelGroup) checkGeometry(sc detect.Scorer, version int) error {
	c, ok := detectorChannels(sc)
	if !ok {
		return fmt.Errorf("serve: cannot determine channel count of %s", sc.Name())
	}
	if sc.WindowSize() != g.w || c != g.c {
		return fmt.Errorf("serve: model %s@v%d geometry (W=%d,C=%d) does not match serving group (W=%d,C=%d)",
			g.name, version, sc.WindowSize(), c, g.w, g.c)
	}
	return nil
}

// swap hot-swaps the group's scorer on live sessions: each session's feed
// is re-targeted at it at the next flush that has rows of that session,
// rows queued before the swap included, and warms the new scorer's stream
// from the session's own row history. Callers must have
// validated geometry (checkGeometry) and re-derived the group's
// negotiated precision on the new instance, so swap itself cannot fail —
// Reload uses that to move every derived-precision group of one model in
// a single all-or-nothing step. derived tracks whether the NEW instance
// was re-targeted: a group that negotiated int8 against a float64 v1
// stops being derived when v2 is imported as a native int8 container.
func (g *modelGroup) swap(sc detect.Scorer, version int, kind string, derived bool) {
	g.mu.Lock()
	g.sc, g.caps = sc, sc.Capabilities()
	g.gen++
	// The learned target was fitted to the old engine's amortisation
	// curve; forget it and fall back to the static default until the new
	// engine has produced an evaluation window of its own.
	g.sched.policy.reset()
	g.sched.sinceEval = 0
	g.recomputeFillTargetLocked() // the serving precision may have moved
	g.version = version
	g.kind = kind
	g.derived = derived
	g.mu.Unlock()
}

// servingPrecision reports the precision the group's engine currently
// runs — the value a v2 Welcome echoes.
func (g *modelGroup) servingPrecision() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.caps.Precision
}

// servingVersion reports the concrete version currently loaded. Like
// servingPrecision it exists for the handshake path, which races an
// operator Reload: name/geometry are immutable after construction, but
// version swaps under the group lock.
func (g *modelGroup) servingVersion() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version
}

func (g *modelGroup) status() ModelStatus {
	g.mu.Lock()
	st := ModelStatus{
		Key:            g.key,
		Model:          g.name,
		Version:        g.version,
		Kind:           g.kind,
		Window:         g.w,
		Channels:       g.c,
		Batched:        g.caps.Batched,
		Precision:      g.caps.Precision,
		Requested:      g.reqPrec,
		Derived:        g.derived,
		Pending:        g.n,
		StreamWarms:    make(map[string]int64, detect.NumWarmCauses),
		WindowFallback: g.obs.fallback.Load(),
		FillTarget:     g.fillTarget,
		Sessions:       g.sessions,
		Scheduler:      g.schedulerStatusLocked(),
	}
	g.mu.Unlock()
	for i, c := range g.obs.warms {
		st.StreamWarms[detect.WarmCause(i).String()] = c.Load()
	}
	stages := map[string]*obs.StageTimer{
		"admit_wait": g.obs.admitWait,
		"fill_wait":  g.obs.fillWait,
		"score":      g.obs.score,
		"emit":       g.obs.emit,
	}
	for name, t := range stages {
		if t.Calls.Load() == 0 {
			continue
		}
		if st.Stages == nil {
			st.Stages = make(map[string]StageStats, len(stages))
		}
		st.Stages[name] = stageStats(t)
	}
	st.Amortization = g.obs.amort.rows()
	st.ScoreDist = scoreDist(g.obs.sketch.Snapshot(), st.Kind)
	return st
}

// detectorChannels reports the stream width a fitted detector consumes.
func detectorChannels(d detect.Detector) (int, bool) {
	switch m := d.(type) {
	case *core.Model:
		return m.Config().Channels, true
	case *ae.Model:
		return m.Config().Channels, true
	case *arlstm.Model:
		return m.Config().Channels, true
	case *gbrf.Model:
		return m.Config().Channels, true
	case *iforest.Model:
		return m.Channels(), true
	case *knn.Model:
		return m.Channels(), true
	}
	return 0, false
}
