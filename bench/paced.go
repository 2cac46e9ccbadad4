package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
)

// scoreConn is what the open-loop generator needs of a session.
// *serve.Client is the real one; the instrument's tests substitute a fake.
type scoreConn interface {
	Send(samples [][]float64) error
	ReadScores() ([]stream.Score, error)
	Bye() error
	Close() error
}

// schedule is the absolute timetable of an open-loop phase. Frame 0 is the
// primer sent during set-up; frame k ≥ 1 is due at t0 + (k−1)·period,
// whether or not the system has kept up.
type schedule struct {
	t0       time.Time
	warmup   time.Duration
	rounds   int
	roundDur time.Duration
	period   time.Duration
	sloMs    float64
	trace    bool // record spans, on even rounds only
}

func (s schedule) due(frame int) time.Time { return s.t0.Add(time.Duration(frame-1) * s.period) }

// produced is when the robots produced stream row i: rows come one every
// period/pacedFrameRows, and a frame is due when its last row exists.
func (s schedule) produced(row int) time.Time {
	wait := time.Duration(pacedFrameRows-1-row%pacedFrameRows) * s.period / pacedFrameRows
	return s.due(row / pacedFrameRows).Add(-wait)
}
func (s schedule) start() time.Time { return s.t0.Add(s.warmup) }
func (s schedule) boundary(r int) time.Time {
	return s.start().Add(time.Duration(r) * s.roundDur)
}

// roundOf places an instant: the measured round it falls in, or −1 during
// warm-up and after the last round.
func (s schedule) roundOf(t time.Time) int {
	d := t.Sub(s.start())
	if d < 0 {
		return -1
	}
	if r := int(d / s.roundDur); r < s.rounds {
		return r
	}
	return -1
}

func (s schedule) traced(r int) bool { return s.trace && r >= 0 && r%2 == 0 }

func roundName(r int) string { return "bench.round#" + strconv.Itoa(r) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pacedStream is the input of one session: which registry entry scores it,
// the rows it repeats, and the oracle's score for each distinct window.
type pacedStream struct {
	model, precision string
	rows             [][]float64 // len is a multiple of pacedFrameRows
	oracle           []float64
	engine           []float64 // int8: what the int8 engine scores for each window offline
	w                int       // model window
}

// pacedSession is one connection's generator state. The pacer goroutine
// owns the send side, the reader goroutine the receive side; nothing is
// shared until both have returned.
type pacedSession struct {
	conn scoreConn
	in   *pacedStream
	lane *lane

	// Pacer side.
	sent    int       // frames sent, primer excluded
	lagMs   []float64 // how late each measured frame left, against its due time
	sendUs  []float64
	sendErr error
	sendTr  tracer

	// Reader side.
	lastIdx     int         // the highest score index seen: indices must rise
	shift       int         // score index i is stream row i+shift: the rows the tier has shed from this stream so far
	cands       []int       // the changes of shift the last mismatching score fitted, ascending
	spare       []int       // scratch for the next such list
	state       []uint8     // per stream row, what became of the window that ends there (unseen, scored, …)
	badRun      int64       // mismatching scores in a row, up to now,
	wrong       int64       // and scores that are wrong outputs: no shed explains them
	latMs       [][]float64 // per round of the frame's due time
	arrived     []int64     // per round of the score's arrival time
	firstAt     time.Time   // arrival of the first measured score frame,
	firstN      int64       // the scores it carried,
	lastAt      time.Time   // and arrival of the last one
	scoreFrames int64
	scoreBytes  int64
	readErr     error
	readTr      tracer
}

func newPacedSession(conn scoreConn, in *pacedStream, tr *tracer, parent string) (*pacedSession, error) {
	ln, err := newLane(in.precision, in.oracle, in.engine, tr, parent)
	if err != nil {
		return nil, err
	}
	return &pacedSession{conn: conn, in: in, lane: ln, lastIdx: in.w - 2}, nil
}

// What became of the window that ends at a stream row.
const (
	unseen  uint8 = iota // no right score for it yet
	scored               // one right score,
	inTime               // which came within the SLO, for a window of the measured rounds
	spoiled              // more than one score
)

// mark sets the state of the window that ends at row.
func (ps *pacedSession) mark(row int, st uint8) {
	for len(ps.state) <= row {
		ps.state = append(ps.state, unseen)
	}
	ps.state[row] = st
}

func (ps *pacedSession) stateOf(row int) uint8 {
	if row < len(ps.state) {
		return ps.state[row]
	}
	return unseen
}

// maxResync is how far ahead, in rows, a session looks for its place in the
// stream after a mismatch: half the stream's period, 1.28 s. A longer outage
// fails the rest of the run.
const maxResync = pacedRows / 2

// pos is the oracle position of the window that ends at stream row.
func (ps *pacedSession) pos(row int) int { return (row - (ps.in.w - 1)) % len(ps.in.oracle) }

// fits lists, in ascending order, the changes of shift d ≠ 0 under which v
// passes the precision's check for the window that ends at row+d: forward as
// far as maxResync, and back as far as the stream's own numbering (shift 0).
func (ps *pacedSession) fits(row int, v float64, into []int) []int {
	into = into[:0]
	// Forward and back together span less than one period of the stream, so
	// no place is listed twice.
	back := min(ps.shift, max(0, len(ps.in.oracle)-maxResync-1))
	for d := -back; d <= maxResync; d++ {
		if d != 0 && row+d >= ps.in.w-1 && ps.lane.matches(ps.pos(row+d), v) {
			into = append(into, d)
		}
	}
	return into
}

// firstCommon is the smallest value two ascending lists share, or 0.
func firstCommon(a, b []int) int {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 0
}

// accept accounts one arriving score — rising index, and right by the
// precision's check — and returns the stream row it belongs to. The server
// numbers scores by the samples it admitted, so when the tier sheds rows
// under overload (admission and relay queues drop the oldest by design) every
// later index falls short of its row by the rows shed. The session finds its
// place again by content: a mismatching score proposes every change of shift
// it fits (by chance it fits a few wrong ones as well: one position in some
// thousands), and the next score confirms the smallest they share. The
// windows shed, the scores that straddle a gap and the proposer are failed
// windows (they are never marked scored) but not wrong outputs: a shed of d
// rows is at most d gaps, and each gap spoils at most window−1 scores and
// costs one proposer. The shift also goes back: after a shed the router's
// settlement audit at Bye finds scores owing, re-places the session, and the
// new backend's scores for the replayed rows arrive under the stream's own
// numbering, a second score for windows that had one. What follows a
// confirmed change is verified as before. A repeated index, a run of
// mismatches that ends where it began, one longer than the change that ends
// it explains, and one that nothing ends are wrong outputs.
func (ps *pacedSession) accept(sc stream.Score) (row int, ok bool) {
	row = sc.Index + ps.shift
	if sc.Index <= ps.lastIdx || row < ps.in.w-1 {
		ps.wrong++
		ps.mark(max(row, 0), spoiled)
		return row, false
	}
	ps.lastIdx = sc.Index
	explained := int64(0) // how long a run of mismatches may be that ends here
	if !ps.lane.matches(ps.pos(row), sc.Value) {
		ps.spare = ps.fits(row, sc.Value, ps.spare)
		d := firstCommon(ps.cands, ps.spare)
		if d == 0 {
			ps.cands, ps.spare = ps.spare, ps.cands
			ps.badRun++
			return row, false
		}
		ps.shift, row = ps.shift+d, row+d
		explained = int64(max(d, 1) * ps.in.w)
	}
	if ps.badRun > explained {
		ps.wrong += ps.badRun - explained
	}
	ps.badRun, ps.cands = 0, ps.cands[:0]
	if ps.stateOf(row) != unseen {
		ps.mark(row, spoiled)
		return row, false
	}
	ps.mark(row, scored)
	ps.lane.record(ps.pos(row), sc.Value)
	return row, true
}

// prime sends frame 0 and waits for its one score, so the first scheduled
// frame meets a session whose window is full and whose group is compiled.
func (ps *pacedSession) prime() error {
	if err := ps.conn.Send(ps.in.rows[:pacedFrameRows]); err != nil {
		return err
	}
	for ps.lastIdx < pacedFrameRows-1 {
		scores, err := ps.conn.ReadScores()
		if err != nil {
			return err
		}
		for _, sc := range scores {
			if _, ok := ps.accept(sc); !ok {
				return fmt.Errorf("primer frame: bad score %+v", sc)
			}
		}
	}
	return nil
}

// catchUp is how fast a pacer that has fallen behind by more than the SLO
// makes up its schedule, as a multiple of the offered rate: the line's
// gateway has an uplink of twice the line rate. Without a limit the whole
// backlog of a host stall (this process shares one CPU with the tier, so the
// two stall together) goes out in one burst, which no queue of the tier at its
// default depth can hold, and a benchmark that was merely descheduled for
// 0.1 s reports shed windows. A frame that can still meet its SLO is never
// held back: limiting those too made every late frame delay the next, and
// tripled bench.gen_lag_p99_ms.
const catchUp = 2

// pace sends frames on the schedule. It sleeps to each due time and never
// spins: its CPU is inside cpu_s_per_mwindow. Due times are absolute, so a
// late pacer catches up — at once, or at catchUp times the offered rate
// when it is further behind than the SLO — and latency, which runs from the
// schedule and not from the send, is charged the delay.
func (ps *pacedSession) pace(sch schedule) {
	end := sch.boundary(sch.rounds)
	sl := newSleeper()
	defer sl.close()
	var last time.Time
	for k := 1; ; k++ {
		due := sch.due(k)
		if !due.Before(end) {
			break
		}
		at := due
		if time.Since(due) > time.Duration(sch.sloMs*float64(time.Millisecond)) {
			at = last.Add(sch.period / catchUp) // behind by more than the SLO: this one is past saving
		}
		sl.until(at)
		off := (k * pacedFrameRows) % len(ps.in.rows)
		t0 := time.Now()
		err := ps.conn.Send(ps.in.rows[off : off+pacedFrameRows])
		t1 := time.Now()
		last = t0
		if err != nil {
			ps.sendErr = err
			break
		}
		ps.sent = k
		if r := sch.roundOf(due); r >= 0 {
			ps.lagMs = append(ps.lagMs, ms(t0.Sub(due)))
			ps.sendUs = append(ps.sendUs, ms(t1.Sub(t0))*1e3)
			if sch.traced(r) {
				ps.sendTr.add("serve.Client.Send", int64(k), roundName(r), t0, t1)
			}
		}
	}
	if err := ps.conn.Bye(); err != nil && ps.sendErr == nil {
		ps.sendErr = err
	}
}

// read consumes scores until the server ends the stream. Latency runs from
// the instant the schedule produced the sample — not from when its frame was
// sent — so a stall charges every frame that fell due during it.
func (ps *pacedSession) read(sch schedule) {
	ps.latMs = make([][]float64, sch.rounds)
	ps.arrived = make([]int64, sch.rounds)
	for {
		t0 := time.Now()
		scores, err := ps.conn.ReadScores()
		now := time.Now()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				ps.readErr = err
			}
			return
		}
		ar := sch.roundOf(now)
		if ar >= 0 {
			if ps.firstAt.IsZero() {
				ps.firstAt, ps.firstN = now, int64(len(scores))
			}
			ps.lastAt = now
			ps.arrived[ar] += int64(len(scores))
			ps.scoreFrames++
			ps.scoreBytes += int64(5 + 4 + 16*len(scores))
		}
		if sch.traced(ar) {
			ps.readTr.add("serve.Client.ReadScores", ps.scoreFrames, roundName(ar), t0, now)
		}
		for _, sc := range scores {
			row, ok := ps.accept(sc)
			if !ok {
				continue // no latency for a score without a place
			}
			due := sch.produced(row)
			r := sch.roundOf(due)
			if r < 0 {
				continue
			}
			lat := ms(now.Sub(due))
			ps.latMs[r] = append(ps.latMs[r], lat)
			if lat <= sch.sloMs {
				ps.mark(row, inTime)
			}
		}
	}
}

func closeSessions(sessions []*pacedSession) {
	for _, ps := range sessions {
		ps.conn.Close()
	}
}

// pacedTotals is what one open-loop phase measured, all sessions together.
type pacedTotals struct {
	sch     schedule
	rounds  []round   // every session together; CPU in wall seconds
	all     pooled    // every round, CPU in reference seconds (speed.go)
	wall    pooled    // every round, CPU in wall seconds
	perConn [][]round // every round, one session
	// delivered is scores per second as the readers' own clocks saw them
	// arrive: per session, the scores after the first measured frame over the
	// time from that frame to the last. It equals the offered rate unless a
	// backlog or shedding grows.
	delivered float64
	owed      int64     // windows due in the measured rounds
	met       int64     // of those, scored once, correctly, within the SLO
	total     int64     // windows owed over the whole phase, warm-up included
	failed    int64     // of those, never scored or scored wrongly,
	wrong     int64     // and of those, the ones that were wrong outputs rather than windows the tier shed
	lagMs     []float64 // sorted
	sendUs    []float64
	frames    int64 // measured sample and score frames
	bytes     int64 // their size on the wire
	steal     float64
	speed     float64 // machine-speed factor over the measured rounds
	gorout    int
	ms0, ms1  runtime.MemStats
}

// drive runs one open-loop phase over primed sessions: a pacer and a
// reader goroutine per connection, this goroutine waking at round
// boundaries to read the process counters. atBoundary, if set, is called at
// the start (false) and the end (true) of the measured phase.
func drive(cfg runConfig, sessions []*pacedSession, atBoundary func(end bool)) pacedTotals {
	sch := schedule{t0: time.Now().Add(20 * time.Millisecond), warmup: cfg.warmup, rounds: cfg.rounds,
		roundDur: cfg.roundDur, period: pacedPeriod, sloMs: sloPacedMs, trace: cfg.trace}
	var pacers, readers sync.WaitGroup
	for _, ps := range sessions {
		ps := ps
		pacers.Add(1)
		readers.Add(1)
		go func() { defer pacers.Done(); ps.pace(sch) }()
		go func() { defer readers.Done(); ps.read(sch) }()
	}

	t := pacedTotals{sch: sch, rounds: make([]round, cfg.rounds)}
	time.Sleep(time.Until(sch.start()))
	if atBoundary != nil {
		atBoundary(false)
	}
	steal0, ticks0 := cpuTicks()
	if cfg.trace {
		runtime.ReadMemStats(&t.ms0)
	}
	cpu0 := cpuSeconds()
	for r := range t.rounds {
		time.Sleep(time.Until(sch.boundary(r + 1)))
		cpu1 := cpuSeconds()
		factor, tickCPU := cfg.speed.over(sch.boundary(r), sch.boundary(r+1))
		t.rounds[r] = round{elapsed: cfg.roundDur, cpu: cpu1 - cpu0 - tickCPU, factor: factor, rssMB: cfg.rss.take(), traced: sch.traced(r)}
		cpu0 = cpu1
		if n := runtime.NumGoroutine(); n > t.gorout {
			t.gorout = n
		}
	}
	if cfg.trace {
		runtime.ReadMemStats(&t.ms1)
	}
	if steal1, ticks1 := cpuTicks(); ticks1 > ticks0 {
		t.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}
	t.speed, _ = cfg.speed.over(sch.start(), sch.boundary(cfg.rounds))
	if atBoundary != nil {
		atBoundary(true)
	}

	pacers.Wait()
	// The server flushes every owed score after Bye and closes the stream;
	// a session still open well after that is torn down, and the windows
	// it never scored fail.
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		closeSessions(sessions)
		<-done
	}

	sampleFrame := int64(5 + 4 + pacedFrameRows*8*len(sessions[0].in.rows[0]))
	for _, ps := range sessions {
		if ps.sendErr != nil || ps.readErr != nil {
			fmt.Printf("%s session: send error: %v, read error: %v\n", ps.in.precision, ps.sendErr, ps.readErr)
		}
		for row := ps.in.w - 1; row < (ps.sent+1)*pacedFrameRows; row++ {
			t.total++
			switch ps.stateOf(row) {
			case inTime:
				t.met++
			case unseen, spoiled:
				t.failed++
			}
		}
		t.wrong += ps.wrong + ps.badRun
		t.owed += int64(len(ps.lagMs)) * pacedFrameRows
		t.frames += int64(len(ps.lagMs)) + ps.scoreFrames
		t.bytes += int64(len(ps.lagMs))*sampleFrame + ps.scoreBytes
		t.lagMs = append(t.lagMs, ps.lagMs...)
		t.sendUs = append(t.sendUs, ps.sendUs...)
		var got int64
		for _, n := range ps.arrived {
			got += n
		}
		if span := ps.lastAt.Sub(ps.firstAt); span > 0 {
			t.delivered += float64(got-ps.firstN) / span.Seconds()
		}
		conn := make([]round, cfg.rounds)
		for r := range conn {
			conn[r] = round{elapsed: cfg.roundDur, windows: ps.arrived[r], lat: ps.latMs[r]}
			t.rounds[r].windows += ps.arrived[r]
			t.rounds[r].lat = append(t.rounds[r].lat, ps.latMs[r]...)
		}
		t.perConn = append(t.perConn, conn)
	}
	sort.Float64s(t.lagMs)
	// CPU is clock-bound and goes to reference seconds; the rounds' length
	// and the latencies are timer-bound and stay wall time.
	t.all = pool(reference(t.rounds, true), allRounds(t.rounds))
	t.wall = pool(t.rounds, allRounds(t.rounds))
	return t
}

// e2e writes the phase's end-to-end metrics into the report.
func (t *pacedTotals) e2e(rep *report, sessions []*pacedSession) {
	lanes := make([]*lane, len(sessions))
	for i, ps := range sessions {
		lanes[i] = ps.lane
	}
	auc, aucFailed := worstAUC(lanes)
	rep.Attempted = t.total
	rep.Failed = t.failed + aucFailed
	rep.Wrong = t.wrong + aucFailed
	rep.Scored = t.total - t.failed
	rep.Env.StealShare, rep.Env.SpeedFactor = t.steal, t.speed
	rep.Samples["latency"] = len(t.all.lat)
	rep.Rounds = summarize(reference(t.rounds, true))
	rep.E2E["peak_rss_mb"] = medianRSS(t.rounds)
	if percentile(t.lagMs, 0.99) > 1 {
		rep.Env.Flags = append(rep.Env.Flags, "generator_late")
	}
	// Every round counts, pooled: trimming would hide a real periodic tail.
	rep.E2E["windows_per_s"] = t.delivered
	rep.E2E["latency_p50_ms"] = percentile(t.all.lat, 0.50)
	rep.E2E["latency_p99_ms"] = percentile(t.all.lat, 0.99)
	rep.E2E["slo_met_share"] = float64(t.met) / float64(t.owed)
	rep.E2E["cpu_s_per_mwindow"] = t.all.cpuPerWindow * 1e6
	rep.E2E["auc_vs_oracle"] = auc
	rep.Raw["cpu_s_per_mwindow"] = t.wall.cpuPerWindow * 1e6
}

// tier is the system under an open-loop workload.
type tier struct {
	servers  []*serve.Server
	backends []string      // the servers' session addresses
	router   *route.Router // nil on the direct path
	addr     string        // where the workload's sessions dial
}

func (t *tier) shutdown() {
	if t.router != nil {
		t.router.Shutdown(context.Background())
	}
	for _, s := range t.servers {
		s.Shutdown(context.Background())
	}
}

// pacedModels names the registry entry each session asks for. The int8
// session is served from the calibrated int8 container rather than derived
// from the float64 entry: a derived group calibrates on whatever its first
// coalesced batch happens to hold, which would make scores depend on timing.
var pacedModels = [pacedConns]struct{ model, precision string }{
	{"edge", core.PrecisionFloat32},
	{"edge-int8", core.PrecisionInt8},
}

// pacedRows is the length of each session's repeating stream.
const pacedRows = 16384

// startTier brings up the serving tier over one registry: one server, or a
// router fronting two backends.
func startTier(fx *edgeFixture, dir string, routed bool) (*tier, error) {
	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.Import(fx.paths[core.PrecisionFloat64], "edge"); err != nil {
		return nil, err
	}
	if _, err := reg.Import(fx.paths[core.PrecisionInt8], "edge-int8"); err != nil {
		return nil, err
	}
	t := &tier{}
	n := 1
	if routed {
		n = pacedConns
		t.router = route.NewRouter(route.Config{DefaultModel: "edge", TTL: time.Hour, JitterSeed: 1})
	}
	for i := 0; i < n; i++ {
		s, err := serve.NewServer(serve.Config{Registry: reg, DefaultModel: "edge", SLOP99: serverSLOP99})
		if err != nil {
			t.shutdown()
			return nil, err
		}
		t.servers = append(t.servers, s)
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			t.shutdown()
			return nil, err
		}
		t.backends = append(t.backends, addr)
		if routed {
			// Each backend announces one precision, so the router's
			// per-precision pools split the two sessions two ways by
			// design rather than by where their keys happen to hash.
			err = t.router.Register(route.Announcement{ID: fmt.Sprintf("b%d", i+1), Addr: addr,
				Precisions: []string{pacedModels[i].precision}})
			if err != nil {
				t.shutdown()
				return nil, err
			}
		}
	}
	t.addr = t.backends[0]
	if routed {
		if t.addr, err = t.router.Serve("127.0.0.1:0"); err != nil {
			t.shutdown()
			return nil, err
		}
	}
	return t, nil
}

// dial opens and primes the session of stream in against addr, returning
// how long the handshake and the first score took.
func dial(in *pacedStream, addr string, id int64, tr *tracer, parent string) (ps *pacedSession, dialMs, firstMs float64, err error) {
	var cl *serve.Client
	dialMs = ms(timed(tr, "serve.DialWith", id, parent, func() {
		cl, err = serve.DialWith(context.Background(), addr, in.model, len(in.rows[0]), stream.SessionCaps{Precision: in.precision})
	}))
	if err != nil {
		return nil, 0, 0, err
	}
	if got := cl.Welcome().Precision; got != in.precision {
		cl.Close()
		return nil, 0, 0, fmt.Errorf("%s session granted precision %q", in.precision, got)
	}
	if ps, err = newPacedSession(cl, in, tr, parent); err == nil {
		firstMs = ms(timed(tr, "bench.firstScore", id, parent, func() { err = ps.prime() }))
	}
	if err != nil {
		cl.Close()
		return nil, 0, 0, err
	}
	return ps, dialMs, firstMs, nil
}

type pacedWorkload struct {
	tier     *tier
	streams  []*pacedStream
	sessions []*pacedSession
	dialMs   []float64
	firstMs  []float64
}

func setupPaced(routed bool) setupFunc {
	return func(seed uint64, dir string, tr *tracer, parent string) (func(runConfig, *report, *tracer), closer, error) {
		fx, err := buildEdgeFixture(seed, dir, pacedConns*pacedRows, tr, parent)
		if err != nil {
			return nil, nil, err
		}
		wl := &pacedWorkload{}
		for i, pm := range pacedModels {
			series := fx.test.SliceRows(i*pacedRows, (i+1)*pacedRows)
			in := &pacedStream{model: pm.model, precision: pm.precision, w: fx.oracle.WindowSize()}
			timed(tr, "detect.ScoreSeries(oracle)", int64(i), parent, func() { in.oracle = cyclicScores(fx.oracle, detect.ScoreSeries, series) })
			if pm.precision == core.PrecisionInt8 {
				m, err := fx.load(pm.precision, tr, parent)
				if err != nil {
					return nil, nil, err
				}
				in.engine = cyclicScores(m, detect.ScoreSeriesBatched, series)
			}
			for r := 0; r < pacedRows; r++ {
				in.rows = append(in.rows, series.Row(r).Data())
			}
			wl.streams = append(wl.streams, in)
		}
		if wl.tier, err = startTier(fx, dir, routed); err != nil {
			return nil, nil, err
		}
		teardown := func() {
			closeSessions(wl.sessions)
			wl.tier.shutdown()
		}
		for i, in := range wl.streams {
			ps, dialMs, firstMs, err := dial(in, wl.tier.addr, int64(i), tr, parent)
			if err != nil {
				teardown()
				return nil, nil, err
			}
			wl.sessions = append(wl.sessions, ps)
			wl.dialMs, wl.firstMs = append(wl.dialMs, dialMs), append(wl.firstMs, firstMs)
		}
		return wl.run, teardown, nil
	}
}

// run drives the paced workload and fills the report.
func (wl *pacedWorkload) run(cfg runConfig, rep *report, tr *tracer) {
	var before, after serveTotals
	t := drive(cfg, wl.sessions, func(end bool) {
		if end {
			after = readServeTotals(wl.tier.servers)
		} else {
			before = readServeTotals(wl.tier.servers)
		}
	})
	t.e2e(rep, wl.sessions)
	if cfg.trace {
		wl.layers(cfg, rep, tr, &t, before, after)
	}
}

// serveTotals sums the servers' own registries.
type serveTotals struct {
	windows, batches      int64
	stageNs, stageWindows map[string]int64
	flushes               map[string]int64 // by trigger
	samplesDropped        int64
	scoresDropped         int64
	shed                  int64
	p50Ms, p99Ms          float64 // coalesce latency since start, worst server
}

func readServeTotals(servers []*serve.Server) serveTotals {
	t := serveTotals{stageNs: map[string]int64{}, stageWindows: map[string]int64{}, flushes: map[string]int64{}}
	for _, s := range servers {
		m := s.Metrics()
		t.windows += m.WindowsScored
		t.batches += m.Batches
		t.samplesDropped += m.SamplesDropped
		t.scoresDropped += m.ScoresDropped
		if m.P50CoalesceMs > t.p50Ms {
			t.p50Ms = m.P50CoalesceMs
		}
		if m.P99CoalesceMs > t.p99Ms {
			t.p99Ms = m.P99CoalesceMs
		}
		for _, g := range m.Models {
			for name, st := range g.Stages {
				t.stageNs[name] += st.TotalNs
				t.stageWindows[name] += st.Windows
			}
			if sc := g.Scheduler; sc != nil {
				t.flushes["fill"] += sc.FillFlushes
				t.flushes["deadline"] += sc.DeadlineFlushes
				t.flushes["drain"] += sc.DrainFlushes
				t.shed += sc.Shed
			}
		}
	}
	return t
}

// promSamples returns the sample lines of a Prometheus text exposition.
func promSamples(body string) []string {
	var lines []string
	for _, line := range strings.Split(body, "\n") {
		if line != "" && line[0] != '#' {
			lines = append(lines, line)
		}
	}
	return lines
}

// promSum adds up every sample of one metric family, whatever its labels.
func promSum(body, family string) (sum float64) {
	for _, line := range promSamples(body) {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, _ := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		sum += v
	}
	return sum
}

// layers fills the traced run's serve, route, stream, obs and bench metrics.
func (wl *pacedWorkload) layers(cfg runConfig, rep *report, tr *tracer, t *pacedTotals, before, after serveTotals) {
	for r := range t.rounds {
		if t.rounds[r].traced {
			tr.add("bench.round", int64(r), "", t.sch.boundary(r), t.sch.boundary(r+1))
		}
	}
	for _, ps := range wl.sessions {
		tr.spans = append(tr.spans, ps.sendTr.spans...)
		tr.spans = append(tr.spans, ps.readTr.spans...)
	}

	L := rep.Layer
	routed := wl.tier.router != nil
	if routed {
		L["route.dial_ms"] = median(wl.dialMs)
	} else {
		L["serve.dial_ms"] = median(wl.dialMs)
	}
	L["serve.first_score_ms"] = median(wl.firstMs)
	L["serve.send_us_per_frame"] = median(t.sendUs)

	windows := float64(after.windows - before.windows)
	if batches := float64(after.batches - before.batches); batches > 0 && windows > 0 {
		L["serve.mean_batch"] = windows / batches
		L["serve.batches_per_kwindow"] = batches * 1e3 / windows
	}
	for _, st := range []string{"admit_wait", "fill_wait", "score", "emit"} {
		if dw := after.stageWindows[st] - before.stageWindows[st]; dw > 0 {
			L["serve."+st+"_us_per_window"] = float64(after.stageNs[st]-before.stageNs[st]) / 1e3 / float64(dw)
		}
	}
	var flushes float64
	for trig := range after.flushes {
		flushes += float64(after.flushes[trig] - before.flushes[trig])
	}
	for trig := range after.flushes {
		if flushes > 0 {
			L["serve.flush_share."+trig] = float64(after.flushes[trig]-before.flushes[trig]) / flushes
		}
	}
	L["serve.coalesce_p99_ms"] = after.p99Ms
	L["serve.samples_dropped"] = float64(after.samplesDropped - before.samplesDropped)
	L["serve.scores_dropped"] = float64(after.scoresDropped - before.scoresDropped)
	L["serve.shed"] = float64(after.shed - before.shed)
	L["serve.client_minus_server_p50_ms"] = rep.E2E["latency_p50_ms"] - after.p50Ms
	for i, ps := range wl.sessions {
		conn := pool(t.perConn[i], allRounds(t.perConn[i]))
		L["serve.latency_p50_ms."+short(ps.in.precision)] = percentile(conn.lat, 0.50)
		L["serve.latency_p99_ms."+short(ps.in.precision)] = percentile(conn.lat, 0.99)
	}
	L["stream.frames_per_kwindow"] = float64(t.frames) * 1e3 / float64(t.owed)
	L["stream.wire_bytes_per_window"] = float64(t.bytes) / float64(t.owed)

	var scrape bytes.Buffer
	L["obs.scrape_ms"] = ms(timed(tr, "serve.Server.WritePrometheus", 0, "", func() { wl.tier.servers[0].WritePrometheus(&scrape) }))
	L["obs.series"] = float64(len(promSamples(scrape.String())))

	phase := float64(cfg.rounds) * cfg.roundDur.Seconds()
	L["bench.gen_lag_p99_ms"] = percentile(t.lagMs, 0.99)
	L["bench.quiet_gap"] = 1 - t.all.rate/pool(t.rounds, quietRounds(t.rounds, allRounds(t.rounds))).rate
	L["bench.round_iqr_share"] = roundIQRShare(t.rounds)
	L["bench.round_p50_ms"] = roundPercentile(t.rounds, allRounds(t.rounds), 0.50)
	L["bench.round_p99_ms"] = roundPercentile(t.rounds, allRounds(t.rounds), 0.99)
	L["bench.steal_share"] = t.steal
	L["bench.machine_speed"] = t.speed
	L["bench.gc_cycles_per_s"] = float64(t.ms1.NumGC-t.ms0.NumGC) / phase
	L["bench.gc_pause_ms_per_s"] = float64(t.ms1.PauseTotalNs-t.ms0.PauseTotalNs) / 1e6 / phase
	L["bench.goroutines_peak"] = float64(t.gorout)
	// Open loop: the rate is the offered one with or without spans, so
	// recording them is priced in CPU per window.
	ref := reference(t.rounds, true)
	on, off := tracedSplit(ref)
	if offCPU := pool(ref, off).cpuPerWindow; offCPU > 0 {
		L["bench.trace_overhead_share"] = pool(ref, on).cpuPerWindow/offCPU - 1
	}
	if !routed {
		return
	}

	var prom bytes.Buffer
	wl.tier.router.WritePrometheus(&prom)
	L["route.relay_dropped_frames"] = promSum(prom.String(), "varade_router_relay_dropped_frames_total")
	handoffs, _, _ := wl.tier.router.HandoffStats()
	L["route.handoffs"] = float64(handoffs)

	// The relay's price: replay a third of the schedule straight to the
	// backends — each session to the backend the router placed it on — and
	// subtract.
	var direct []*pacedSession
	defer func() { closeSessions(direct) }()
	for i, in := range wl.streams {
		ps, _, _, err := dial(in, wl.tier.backends[i], int64(i), nil, "")
		if err != nil {
			fmt.Println("direct replay:", err)
			return
		}
		direct = append(direct, ps)
	}
	dcfg := cfg
	dcfg.rounds, dcfg.trace = (cfg.rounds+2)/3, false
	d := drive(dcfg, direct, nil)
	L["route.added_latency_p50_ms"] = rep.E2E["latency_p50_ms"] - percentile(d.all.lat, 0.50)
	L["route.added_latency_p99_ms"] = rep.E2E["latency_p99_ms"] - percentile(d.all.lat, 0.99)
	L["route.added_cpu_s_per_mwindow"] = rep.E2E["cpu_s_per_mwindow"] - d.all.cpuPerWindow*1e6
}

// tracedSplit separates the rounds that recorded spans from those that did not.
func tracedSplit(rs []round) (on, off []int) {
	for i, rd := range rs {
		if rd.traced {
			on = append(on, i)
		} else {
			off = append(off, i)
		}
	}
	return on, off
}
