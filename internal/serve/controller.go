package serve

import (
	"fmt"
	"time"

	"varade/internal/obs"
)

// The closed-loop batch scheduler: each serving group is an agent tuning
// its own fill-target knob against an explicit tail-latency budget — the
// dynamic-algorithm-configuration framing (Xue et al. 2022) applied to
// the serving layer. PR 7's telemetry measures the exact
// ns/window-vs-batch-size amortisation curve per group; the controller
// here reads that curve back in windowed deltas (obs.Cursor) and moves
// the group's fill target to the knee: the smallest batch size whose
// marginal amortisation gain has run out. A per-group p99 SLO — the
// operator's -slo-p99 floor tightened by the strictest live session's
// negotiated slo_p99_ms capability — converts into a deadline on the
// oldest admitted window, so the flusher fires at min(fill target
// reached, oldest window's deadline) instead of on a free-running tick.

// Controller tuning. The hysteresis is a Schmitt trigger on the
// amortisation curve: a bucket must beat the best observed ns/window
// within kneeAcquireTol to become a candidate target, but once adopted a
// target is only abandoned when its bucket drifts outside the wider
// kneeHoldTol band — so measurement noise straddling one threshold
// cannot make the target oscillate. schedConfirm adds min-dwell: a
// candidate must win consecutive evaluation windows before the group
// moves.
const (
	// schedMinEvalWindows is how many freshly scored windows an
	// evaluation window must cover before the controller trusts it —
	// the controller's cadence is measured in traffic, not wall clock,
	// so idle groups never churn their target on stale data.
	schedMinEvalWindows = 64
	// schedMinBucketWindows is how many windows a single amortisation
	// bucket needs inside one evaluation window to participate in the
	// knee search.
	schedMinBucketWindows = 8
	// kneeAcquireTol: a bucket within 15% of the best ns/window counts
	// as "past the knee"; the smallest such batch size is the candidate.
	kneeAcquireTol = 1.15
	// kneeHoldTol: an adopted target is kept while its own bucket stays
	// within 35% of the best — the release threshold of the Schmitt
	// trigger.
	kneeHoldTol = 1.35
	// schedConfirm evaluation windows must agree before a target moves.
	schedConfirm = 2
)

// schedPolicy is the pure decision core of the controller — no clocks,
// no locks, no I/O — so the synthetic-curve tests drive it directly.
// target == 0 means the policy has not yet learned anything and the
// group stays on its static per-precision default.
type schedPolicy struct {
	maxBatch  int
	target    int // adopted learned target (a power-of-two bucket bound)
	candidate int // knee candidate awaiting confirmation
	confirm   int // consecutive evaluation windows the candidate has won
	lastKnee  int // most recent knee measurement (observability only)
}

// observe feeds the policy one evaluation window of the measured
// amortisation curve and returns the (possibly updated) learned target
// plus whether it moved this call.
func (p *schedPolicy) observe(rows []AmortRow) (int, bool) {
	best := 0.0
	eligible := 0
	for _, r := range rows {
		if r.Windows < schedMinBucketWindows || r.NsPerWindow <= 0 {
			continue
		}
		eligible++
		if best == 0 || r.NsPerWindow < best {
			best = r.NsPerWindow
		}
	}
	if eligible == 0 {
		// Too sparse to judge: keep the target, drop any half-confirmed
		// candidate so stale evidence never carries across a quiet spell.
		p.candidate, p.confirm = 0, 0
		return p.target, false
	}
	knee := 0
	for _, r := range rows {
		if r.Windows < schedMinBucketWindows || r.NsPerWindow <= 0 {
			continue
		}
		if r.NsPerWindow <= kneeAcquireTol*best {
			knee = r.BatchLE
			break
		}
	}
	knee = max(1, min(knee, p.maxBatch))
	p.lastKnee = knee

	if p.target > 0 {
		// Hold band: while the adopted target's own bucket still performs
		// within the release tolerance, stay put regardless of where the
		// acquire threshold says the knee is this window. A target whose
		// bucket saw no traffic this window also holds — absence of
		// evidence about the target is not evidence against it, and moving
		// on it makes the policy chase whichever bucket deadline/drain
		// flushes happened to populate.
		found := false
		for _, r := range rows {
			if r.BatchLE == p.target || (p.target == p.maxBatch && r.BatchLE >= p.maxBatch) {
				found = r.Windows >= schedMinBucketWindows && r.NsPerWindow > 0
				if found && r.NsPerWindow <= kneeHoldTol*best {
					p.candidate, p.confirm = 0, 0
					return p.target, false
				}
				break
			}
		}
		if !found {
			p.candidate, p.confirm = 0, 0
			return p.target, false
		}
	}
	if knee == p.target {
		p.candidate, p.confirm = 0, 0
		return p.target, false
	}
	if knee != p.candidate {
		p.candidate, p.confirm = knee, 1
		return p.target, false
	}
	p.confirm++
	if p.confirm < schedConfirm {
		return p.target, false
	}
	p.target = knee
	p.candidate, p.confirm = 0, 0
	return p.target, true
}

// reset forgets everything learned — called on hot swap, where the new
// engine's amortisation curve owes nothing to the old one's.
func (p *schedPolicy) reset() {
	p.target, p.candidate, p.confirm, p.lastKnee = 0, 0, 0, 0
}

// flush triggers, in label order.
const (
	trigFill     = iota // fill target reached (or an explicit kick: tail drain, backpressure)
	trigDeadline        // the oldest admitted window hit its SLO deadline
	trigDrain           // server shutdown final drain
	trigCount
)

var trigNames = [trigCount]string{"fill", "deadline", "drain"}

// groupSched is one group's controller state. Everything here is guarded
// by the group mutex except the obs handles (atomics).
type groupSched struct {
	policy schedPolicy

	// reqSLO holds live sessions' negotiated latency budgets (> 0 only);
	// slo is the effective group budget: the server's configured floor
	// tightened by the strictest session. 0 = no budget, and the flush
	// deadline falls back to Config.FlushInterval.
	reqSLO map[*session]time.Duration
	slo    time.Duration

	// flushCost smooths the observed score+emit nanoseconds per flush —
	// the margin the deadline subtracts from the SLO so a window flushed
	// exactly at its deadline still emits inside the budget. Refreshed at
	// evaluation time from the stage timers' windowed read-back.
	flushCost time.Duration

	// sinceEval counts windows scored since the last policy evaluation;
	// the cursors below read the amortisation table and stage timers in
	// deltas spanning exactly those windows. reach is the most windows one
	// deadline flush scored over the same span (0: none fired).
	sinceEval  int64
	reach      int
	amortCur   amortCursors
	scoreCur   obs.StageCursor
	emitCur    obs.StageCursor
	lastChange string // human-readable record of the latest target move
}

// deadlineBudgetLocked converts the group's effective SLO into the time
// an admitted window may sit queued. Without an SLO the
// old flush-interval bound applies, so servers that never opt in keep
// their exact pre-controller latency behaviour.
func (g *modelGroup) deadlineBudgetLocked() time.Duration {
	b := g.sched.slo
	if b <= 0 {
		return g.srv.cfg.FlushInterval
	}
	margin := g.sched.flushCost
	if margin > b/2 {
		margin = b / 2
	}
	return b - margin
}

// recomputeSLOLocked re-derives the effective latency budget from the
// server floor and the live sessions' negotiated requests.
func (g *modelGroup) recomputeSLOLocked() {
	s := g.srv.cfg.SLOP99
	for _, d := range g.sched.reqSLO {
		if d > 0 && (s <= 0 || d < s) {
			s = d
		}
	}
	g.sched.slo = s
	g.obs.sloGauge.Set(float64(s.Nanoseconds()))
}

// schedAfterFlushLocked runs the controller tail of a flush of n
// windows: accumulate traffic, and once a full evaluation window has
// passed, read back the amortisation deltas and let the policy decide.
func (g *modelGroup) schedAfterFlushLocked(n, trigger int) {
	g.sched.sinceEval += int64(n)
	if trigger == trigDeadline {
		g.sched.reach = max(g.sched.reach, n)
	}
	if g.sched.sinceEval < schedMinEvalWindows {
		return
	}
	g.schedEvalLocked()
}

// schedEvalLocked performs one controller evaluation: refresh the flush
// cost estimate from the stage timers, feed the windowed amortisation
// curve to the policy, and apply any target move.
func (g *modelGroup) schedEvalLocked() {
	g.sched.sinceEval = 0
	score := g.sched.scoreCur.Take()
	emit := g.sched.emitCur.Take()
	if cost := time.Duration(score.NsPerCall() + emit.NsPerCall()); cost > 0 {
		if g.sched.flushCost == 0 {
			g.sched.flushCost = cost
		} else {
			// EWMA, alpha ≈ 0.25: smooth enough to ride out one slow GC
			// flush, fast enough to track a hot swap's new engine.
			g.sched.flushCost += (cost - g.sched.flushCost) / 4
		}
	}
	rows := reachable(g.sched.amortCur.take(g.obs.amort), g.sched.reach)
	g.sched.reach = 0
	target, moved := g.sched.policy.observe(rows)
	if !moved {
		return
	}
	old := g.fillTarget
	g.recomputeFillTargetLocked()
	if g.fillTarget == old {
		// The learned knee coincides with the effective target (static
		// default or session cap) — adopting it changed nothing worth a
		// decision record.
		return
	}
	g.obs.targetChanges.Inc()
	g.sched.lastChange = fmt.Sprintf("fill target %d -> %d (knee of measured ns/window curve at batch<=%d)",
		old, g.fillTarget, target)
}

// reachable drops, in place, the rows of buckets no fill target could
// reach before the deadline: reach > 0 is the most windows a deadline flush
// gathered, and a bucket bounded above it is filled only by deadline
// flushes — by whichever frames arrived before the flusher woke. Its cost
// prices waiting out the deadline, not a target, and letting it win the
// knee search would settle the target by wake-up jitter. reach == 0 keeps
// every row.
func reachable(rows []AmortRow, reach int) []AmortRow {
	if reach == 0 {
		return rows
	}
	out := rows[:0]
	for _, r := range rows {
		if r.BatchLE <= reach {
			out = append(out, r)
		}
	}
	return out
}

// currentTargetLocked is the learned target if adopted, else the static
// per-precision default — the base recomputeFillTargetLocked clamps.
func (g *modelGroup) currentTargetLocked() int {
	if t := g.sched.policy.target; t > 0 {
		return max(1, min(t, g.maxBatch))
	}
	return g.srv.fillTargetFor(g.caps.Precision)
}

// amortCursors is the windowed read-back of a group's amortisation
// table: one cursor triple per batch-size bucket, and the rows of the last
// take, reused.
type amortCursors struct {
	flushes []obs.Cursor
	windows []obs.Cursor
	ns      []obs.Cursor
	rows    []AmortRow
}

func newAmortCursors(a *amortSet) amortCursors {
	c := amortCursors{
		flushes: make([]obs.Cursor, len(a.uppers)),
		windows: make([]obs.Cursor, len(a.uppers)),
		ns:      make([]obs.Cursor, len(a.uppers)),
	}
	for i := range a.uppers {
		c.flushes[i] = obs.NewCursor(a.flushes[i])
		c.windows[i] = obs.NewCursor(a.windows[i])
		c.ns[i] = obs.NewCursor(a.ns[i])
	}
	return c
}

// take returns the amortisation rows accrued since the last take,
// advancing the cursors — the per-evaluation-window curve the policy
// consumes. The rows are valid until the next take.
func (c *amortCursors) take(a *amortSet) []AmortRow {
	out := c.rows[:0]
	for i := range a.uppers {
		fl := c.flushes[i].Take()
		w := c.windows[i].Take()
		ns := c.ns[i].Take()
		if fl == 0 && w == 0 {
			continue
		}
		r := AmortRow{BatchLE: a.uppers[i], Flushes: fl, Windows: w}
		if w > 0 {
			r.NsPerWindow = float64(ns) / float64(w)
		}
		out = append(out, r)
	}
	c.rows = out
	return out
}

// SchedulerStatus is one group's controller block in /metrics.json and
// /models: what the knob is set to, where it came from, the latency
// budget in force, and how the flusher has been firing.
type SchedulerStatus struct {
	FillTarget       int     `json:"fill_target"`
	StaticTarget     int     `json:"static_target"`
	LearnedTarget    int     `json:"learned_target,omitempty"`
	LastKnee         int     `json:"last_knee,omitempty"`
	SLOP99Ms         float64 `json:"slo_p99_ms,omitempty"`
	DeadlineBudgetMs float64 `json:"deadline_budget_ms"`
	FillFlushes      int64   `json:"fill_flushes"`
	DeadlineFlushes  int64   `json:"deadline_flushes"`
	DrainFlushes     int64   `json:"drain_flushes"`
	EmptyWakeups     int64   `json:"empty_wakeups"`
	TargetChanges    int64   `json:"target_changes"`
	Shed             int64   `json:"shed,omitempty"`
	LastChange       string  `json:"last_change,omitempty"`
}

func (g *modelGroup) schedulerStatusLocked() *SchedulerStatus {
	const ms = float64(time.Millisecond)
	return &SchedulerStatus{
		FillTarget:       g.fillTarget,
		StaticTarget:     g.srv.fillTargetFor(g.caps.Precision),
		LearnedTarget:    g.sched.policy.target,
		LastKnee:         g.sched.policy.lastKnee,
		SLOP99Ms:         float64(g.sched.slo) / ms,
		DeadlineBudgetMs: float64(g.deadlineBudgetLocked()) / ms,
		FillFlushes:      g.obs.flushTrig[trigFill].Load(),
		DeadlineFlushes:  g.obs.flushTrig[trigDeadline].Load(),
		DrainFlushes:     g.obs.flushTrig[trigDrain].Load(),
		EmptyWakeups:     g.obs.emptyWakeups.Load(),
		TargetChanges:    g.obs.targetChanges.Load(),
		Shed:             g.obs.shedTotal.Load(),
		LastChange:       g.sched.lastChange,
	}
}
