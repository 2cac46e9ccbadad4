package main

import (
	"io"
	"math"
	"testing"
	"time"

	"varade/internal/core"
	"varade/internal/stream"
)

func TestQuietRoundsPoolAndPercentiles(t *testing.T) {
	// Five rounds; the two disturbed ones are slower and carry the latency
	// outliers.
	rs := []round{
		{elapsed: time.Second, windows: 100, cpu: 1.0, lat: []float64{4, 1, 3, 2}},
		{elapsed: time.Second, windows: 60, cpu: 1.0, lat: []float64{50, 60}},
		{elapsed: 2 * time.Second, windows: 220, cpu: 2.0, lat: []float64{5, 6, 7, 8}},
		{elapsed: time.Second, windows: 80, cpu: 1.0, lat: []float64{90}},
		{elapsed: time.Second, windows: 105, cpu: 1.0, lat: []float64{2, 3, 4, 5}},
	}
	quiet := quietRounds(rs, allRounds(rs))
	if len(quiet) != 3 || quiet[0] != 2 || quiet[1] != 4 || quiet[2] != 0 {
		t.Fatalf("quiet rounds %v, want the three fastest [2 4 0]", quiet)
	}
	p := pool(rs, quiet)
	if want := 425.0 / 4; math.Abs(p.rate-want) > 1e-9 {
		t.Errorf("pooled rate %g, want windows/elapsed over the quiet rounds = %g", p.rate, want)
	}
	if want := 4.0 / 425; math.Abs(p.cpuPerWindow-want) > 1e-12 {
		t.Errorf("pooled cpu per window %g, want %g", p.cpuPerWindow, want)
	}
	if len(p.lat) != 12 {
		t.Errorf("pooled samples %d, want the 12 of the quiet rounds", len(p.lat))
	}
	// Pooled percentiles are taken over every sample of the rounds together:
	// the quiet rounds hold 1..8 with 2..5 twice.
	if p50, p100 := percentile(p.lat, 0.5), percentile(p.lat, 1); p50 != 4 || p100 != 8 {
		t.Errorf("pooled quiet p50 %g p100 %g, want 4 and 8", p50, p100)
	}
	// Per-round medians 2.5, 6.5, 3.5 and maxima 4, 8, 5; the typical
	// round's figure is the median of those.
	if p50, p100 := roundPercentile(rs, quiet, 0.5), roundPercentile(rs, quiet, 1); p50 != 3.5 || p100 != 5 {
		t.Errorf("quiet-round p50 %g p100 %g, want 3.5 and 5", p50, p100)
	}
	// Over all rounds the disturbed ones are in. They own the pooled tail,
	// which is what an open loop reports; the median round's tail, the
	// per-layer figure beside it, they do not: the maxima are 4, 60, 8, 90, 5.
	all := pool(rs, allRounds(rs))
	if all.rate >= p.rate {
		t.Errorf("all-rounds rate %g should be below the quiet rate %g", all.rate, p.rate)
	}
	if p100 := percentile(all.lat, 1); p100 != 90 {
		t.Errorf("all-rounds pooled p100 %g, want the worst sample, 90", p100)
	}
	if p100 := roundPercentile(rs, allRounds(rs), 1); p100 != 8 {
		t.Errorf("all-rounds p100 %g, want the median round's 8", p100)
	}
	// Reference seconds: every round divided by its own speed factor.
	slow := []round{{elapsed: 2 * time.Second, windows: 100, cpu: 1.0, lat: []float64{4, 8}, factor: 2}, {elapsed: time.Second, windows: 100, cpu: 0.5, lat: []float64{2}}}
	ref := reference(slow, false)
	if ref[0].elapsed != time.Second || ref[0].cpu != 0.5 || ref[0].lat[1] != 4 || ref[1].elapsed != time.Second || slow[0].lat[1] != 8 {
		t.Errorf("reference rounds %+v (from %+v): want the slow round halved, the unmeasured one and the input untouched", ref, slow)
	}
	if cpuOnly := reference(slow, true); cpuOnly[0].elapsed != 2*time.Second || cpuOnly[0].lat[1] != 8 || cpuOnly[0].cpu != 0.5 {
		t.Errorf("reference CPU only %+v: want wall elapsed and latency, halved CPU", cpuOnly[0])
	}
	// Restricting to a subset ranks within it; an odd count keeps the larger half.
	if got := quietRounds(rs, []int{1, 3, 0}); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("quiet of subset = %v, want [0 3]", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %g %g, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %g %g, want 1 4", q1, q3)
	}
}

func TestSpeedometerInterval(t *testing.T) {
	t0 := time.Now()
	s := &speedometer{}
	for i, d := range []time.Duration{1, 1, 1, 2, 2, 2, 2} {
		s.at = append(s.at, t0.Add(time.Duration(i)*time.Second))
		s.took = append(s.took, d*tickNominal)
		s.cost = append(s.cost, tickBurst*d*tickNominal)
	}
	if f, cpu := s.over(t0, t0.Add(2*time.Second)); f != 1 || math.Abs(cpu-3*tickBurst*tickNominal.Seconds()) > 1e-12 {
		t.Errorf("fast interval: factor %g cpu %g, want 1 and three bursts' time", f, cpu)
	}
	if f, _ := s.over(t0.Add(3*time.Second), t0.Add(6*time.Second)); f != 2 {
		t.Errorf("slow interval: factor %g, want 2", f)
	}
	if f, cpu := s.over(t0.Add(10*time.Second), t0.Add(11*time.Second)); f != 2 || cpu != 0 {
		t.Errorf("empty interval: factor %g cpu %g, want the run's median 2 and no tick CPU", f, cpu)
	}
	if f, cpu := (*speedometer)(nil).over(t0, t0); f != 1 || cpu != 0 {
		t.Errorf("nil speedometer: factor %g cpu %g, want 1 0", f, cpu)
	}
}

// fakeConn is a scorer that returns the oracle's own scores, frame by
// frame, with faults: a one-off stall, a slow Send, a dropped or a
// duplicated score, a run of shed rows. Send hands each frame to the scorer
// over an unbuffered channel, so a stalled scorer holds the sender back the
// way a full socket does.
type fakeConn struct {
	in        *pacedStream
	frames    chan int
	out       chan []stream.Score
	stallAt   int           // frame number the scorer stalls on (0: never)
	stall     time.Duration // for this long
	stallEnd  time.Time
	sendDelay time.Duration // every Send takes this long
	drop, dup int           // score indexes (0: none)
	shedAt    int           // first stream row the scorer never admits (0: none),
	shedRows  int           // and how many: later scores are numbered as the server would, by rows admitted
	frame     int
}

func newFakeConn(in *pacedStream) *fakeConn {
	f := &fakeConn{in: in, frames: make(chan int), out: make(chan []stream.Score, 1<<16)}
	go func() {
		defer close(f.out)
		for k := range f.frames {
			if k == f.stallAt && f.stall > 0 {
				time.Sleep(f.stall)
				f.stallEnd = time.Now()
			}
			var scores []stream.Score
			for i := k * pacedFrameRows; i < (k+1)*pacedFrameRows; i++ {
				shed := f.shedRows > 0 && i >= f.shedAt
				if i < f.in.w-1 || i == f.drop || (shed && i < f.shedAt+f.shedRows) {
					continue
				}
				sc := stream.Score{Index: i, Value: f.in.oracle[(i-(f.in.w-1))%len(f.in.oracle)]}
				if shed {
					sc.Index -= f.shedRows
					if i-(f.in.w-1) < f.shedAt+f.shedRows {
						sc.Value = -1 // a window of rows from both sides of the gap: no oracle position owes it
					}
				}
				scores = append(scores, sc)
				if i == f.dup {
					scores = append(scores, sc)
				}
			}
			f.out <- scores
		}
	}()
	return f
}

func (f *fakeConn) Send([][]float64) error {
	time.Sleep(f.sendDelay)
	f.frames <- f.frame
	f.frame++
	return nil
}

func (f *fakeConn) ReadScores() ([]stream.Score, error) {
	scores, ok := <-f.out
	if !ok {
		return nil, io.EOF
	}
	return scores, nil
}

func (f *fakeConn) Bye() error   { close(f.frames); return nil }
func (f *fakeConn) Close() error { return nil }

// fakeSession primes a session over a fake connection.
func fakeSession(t *testing.T, configure func(*fakeConn)) (*pacedSession, *fakeConn) {
	t.Helper()
	in := &pacedStream{precision: core.PrecisionFloat64, w: 8}
	for i := 0; i < 64; i++ {
		in.rows = append(in.rows, make([]float64, 3))
		in.oracle = append(in.oracle, 1+float64(i*37%64)) // 64 distinct values
	}
	conn := newFakeConn(in)
	configure(conn)
	ps, err := newPacedSession(conn, in, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.prime(); err != nil {
		t.Fatal(err)
	}
	return ps, conn
}

var fakeRun = runConfig{rounds: 3, roundDur: 100 * time.Millisecond, warmup: 20 * time.Millisecond}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// The scorer stalls 50 ms on a frame in the second round. Every frame
	// that fell due during the stall was held back with it and must be
	// charged the rest of the stall, even though it was sent only once the
	// stall was over.
	const stall = 50 * time.Millisecond
	stallFrame := int((fakeRun.warmup+150*time.Millisecond)/pacedPeriod) + 1
	ps, conn := fakeSession(t, func(f *fakeConn) { f.stallAt, f.stall = stallFrame, stall })
	tot := drive(fakeRun, []*pacedSession{ps}, nil)
	if tot.failed != 0 {
		t.Fatalf("%d windows failed on a fault-free stream", tot.failed)
	}
	// Latency samples are kept per round of the row's own production time, in
	// row order: walk the rows to find each one's sample.
	latOf := map[int]float64{}
	cursor := make([]int, fakeRun.rounds)
	for row := ps.in.w - 1; row < (ps.sent+1)*pacedFrameRows; row++ {
		if r := tot.sch.roundOf(tot.sch.produced(row)); r >= 0 {
			latOf[row] = ps.latMs[r][cursor[r]]
			cursor[r]++
		}
	}
	held := 0
	for k := stallFrame + 1; ; k++ {
		due := tot.sch.due(k)
		if !due.Before(conn.stallEnd) {
			break
		}
		held++
		want := ms(conn.stallEnd.Sub(due))
		for row := k * pacedFrameRows; row < (k+1)*pacedFrameRows; row++ {
			if got, ok := latOf[row]; !ok || got < want-0.5 {
				t.Fatalf("row %d of frame %d, due %.1f ms before the stall ended, has latency %.2f ms (measured: %v)", row, k, want, got, ok)
			}
		}
		// The frame's first row was produced seven row periods before the
		// frame was due, and its latency says so.
		first, last := latOf[k*pacedFrameRows], latOf[(k+1)*pacedFrameRows-1]
		if d := first - last - ms(7*pacedPeriod/pacedFrameRows); math.Abs(d) > 1e-6 {
			t.Fatalf("frame %d: first row's latency %.4f ms, last row's %.4f ms, want them 7 row periods apart", k, first, last)
		}
	}
	if held < int(stall/pacedPeriod)-3 {
		t.Fatalf("only %d frames fell due during the stall", held)
	}
	rep := &report{E2E: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]int{}}
	tot.e2e(rep, []*pacedSession{ps})
	// The stall owns the tail of the round it hit and costs the run its
	// SLO share. (That one round in three does not own the run's p99 is
	// asserted on synthetic rounds above: on a shared box this run can meet
	// a real stall of its own, so there are no upper limits here.)
	if p99 := roundPercentile(tot.rounds, []int{1}, 0.99); p99 < 30 {
		t.Errorf("stalled round's p99 %.2f ms: a 50 ms stall in 100 ms must show in its tail", p99)
	}
	if share := rep.E2E["slo_met_share"]; share > 0.92 {
		t.Errorf("slo_met_share %.3f: the ~32 frames held past 10 ms of 240 must miss the SLO", share)
	}
}

func TestThrottledGeneratorIsReported(t *testing.T) {
	// Every Send takes 2 ms against a 1.25 ms period: the generator cannot
	// keep its schedule and must say so.
	ps, _ := fakeSession(t, func(f *fakeConn) { f.sendDelay = 2 * time.Millisecond })
	tot := drive(fakeRun, []*pacedSession{ps}, nil)
	if lag := percentile(tot.lagMs, 0.99); lag < 1 {
		t.Fatalf("gen lag p99 %.3f ms for a generator that is always behind", lag)
	}
	rep := &report{E2E: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]int{}}
	tot.e2e(rep, []*pacedSession{ps})
	if len(rep.Env.Flags) != 1 || rep.Env.Flags[0] != "generator_late" {
		t.Errorf("environment flags %v, want generator_late", rep.Env.Flags)
	}

	// An instant Send keeps the schedule (0.3 ms on an idle box; the limit
	// leaves room for a shared one).
	ps, _ = fakeSession(t, func(*fakeConn) {})
	if free := percentile(drive(fakeRun, []*pacedSession{ps}, nil).lagMs, 0.99); free > percentile(tot.lagMs, 0.99)/4 {
		t.Errorf("gen lag p99 %.3f ms with an instant Send, against %.3f ms throttled", free, percentile(tot.lagMs, 0.99))
	}
}

func TestDroppedAndDuplicatedScoresFail(t *testing.T) {
	clean, _ := fakeSession(t, func(*fakeConn) {})
	base := drive(fakeRun, []*pacedSession{clean}, nil)
	if base.failed != 0 || base.met > base.owed || base.met < base.owed/2 {
		t.Fatalf("fault-free stream: failed %d, met %d of %d", base.failed, base.met, base.owed)
	}
	// Index 400 rides in frame 50 (due 61 ms in), 800 in frame 100: both
	// inside the measured rounds.
	ps, _ := fakeSession(t, func(f *fakeConn) { f.drop, f.dup = 400, 800 })
	tot := drive(fakeRun, []*pacedSession{ps}, nil)
	if tot.failed != 2 || tot.wrong != 1 {
		t.Errorf("failed windows %d, wrong outputs %d, want 2 (one never scored, one scored twice) and 1 (the second score)", tot.failed, tot.wrong)
	}
	if tot.met > tot.owed-2 {
		t.Errorf("windows within SLO %d of %d owed, want both faulty windows to miss", tot.met, tot.owed)
	}
	rep := &report{E2E: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]int{}}
	tot.e2e(rep, []*pacedSession{ps})
	if rep.Failed != 2 || rep.Wrong != 1 || rep.E2E["slo_met_share"] >= 1 {
		t.Errorf("report: failed %d wrong %d slo_met_share %g", rep.Failed, rep.Wrong, rep.E2E["slo_met_share"])
	}

	// The scorer sheds rows 400..423, as a full admission queue would, and
	// numbers what follows by the rows it admitted. The 24 windows shed, the
	// 7 scores that straddle the gap and the one that proposed the new place
	// fail; every later window is found again and verified.
	ps, _ = fakeSession(t, func(f *fakeConn) { f.shedAt, f.shedRows = 400, 24 })
	tot = drive(fakeRun, []*pacedSession{ps}, nil)
	if ps.shift != 24 || tot.failed != 32 || tot.wrong != 0 {
		t.Errorf("after 24 shed rows: shift %d, failed %d, wrong %d, want 24, 32 and no wrong output", ps.shift, tot.failed, tot.wrong)
	}
	if tot.met > tot.owed-32 || tot.met < tot.owed/2 {
		t.Errorf("windows within SLO %d of %d owed, want the 32 failed windows to miss and the rest to be verified", tot.met, tot.owed)
	}
}

// resyncSession is a float64 session over a stream of 2·maxResync rows with
// oracle scores that repeat in pairs, so that most scores fit a wrong place
// as well as their own.
func resyncSession(t *testing.T) *pacedSession {
	t.Helper()
	in := &pacedStream{precision: core.PrecisionFloat64, w: 8}
	for i := 0; i < 2*maxResync; i++ {
		in.oracle = append(in.oracle, 1+float64(i*7919%maxResync/2))
	}
	ps, err := newPacedSession(nil, in, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// feed delivers the scores a server would send for the stream rows
// [from, to) when it has admitted every row but the gaps (each a first row
// and a count, ascending): numbered by rows admitted, and −1 for a window
// that holds rows from both sides of a gap. It returns how many were accepted.
func feed(ps *pacedSession, from, to int, gaps [][2]int) (accepted int) {
	for row := from; row < to; row++ {
		shed, straddles, in := 0, false, false
		for _, g := range gaps {
			switch {
			case row >= g[0] && row < g[0]+g[1]:
				in = true
			case row >= g[0]+g[1]:
				shed += g[1]
				straddles = straddles || row-(ps.in.w-1) < g[0]+g[1]
			}
		}
		if in {
			continue
		}
		sc := stream.Score{Index: row - shed, Value: ps.in.oracle[ps.pos(row)]}
		if straddles {
			sc.Value = -1
		}
		if _, ok := ps.accept(sc); ok {
			accepted++
		}
	}
	return accepted
}

func TestResyncAfterShedding(t *testing.T) {
	// One large shed, 3000 rows: the proposer fits wrong places nearer than its
	// own, and the confirmation must still pick the right one.
	ps := resyncSession(t)
	if got := feed(ps, 7, 5000, [][2]int{{1000, 3000}}); ps.shift != 3000 || ps.wrong != 0 || ps.badRun != 0 || got != 5000-7-3000-8 {
		t.Errorf("one shed of 3000: shift %d wrong %d unresolved %d accepted %d, want 3000, 0, 0 and all but the 7 straddling scores and the proposer", ps.shift, ps.wrong, ps.badRun, got)
	}

	// Three sheds too close together to confirm a place between them: one run
	// of mismatches, ended by one confirmation of the sum.
	ps = resyncSession(t)
	feed(ps, 7, 2000, [][2]int{{1000, 5}, {1008, 1}, {1015, 40}})
	if ps.shift != 46 || ps.wrong != 0 || ps.badRun != 0 {
		t.Errorf("three close sheds: shift %d wrong %d unresolved %d, want 46, 0, 0", ps.shift, ps.wrong, ps.badRun)
	}

	// After a shed the router re-places the session at Bye and the replayed
	// rows are scored again, under the stream's own numbering: second scores
	// for windows that had one, and no wrong output.
	ps = resyncSession(t)
	feed(ps, 7, 2000, [][2]int{{1000, 100}})
	if got := feed(ps, 1968, 2000, nil); got != 0 || ps.shift != 0 || ps.wrong != 0 || ps.badRun != 0 {
		t.Errorf("replay after a shed: accepted %d shift %d wrong %d unresolved %d, want 0, 0, 0, 0", got, ps.shift, ps.wrong, ps.badRun)
	}
	spoilt := 0
	for row := 0; row < 2000; row++ {
		if ps.stateOf(row) == spoiled {
			spoilt++
		}
	}
	if spoilt != 31 { // the 32 replayed but the proposer, which found no place
		t.Errorf("%d windows spoiled by the replay, want 31", spoilt)
	}

	// Wrong values that no shed ends are wrong outputs, and so is an index
	// that does not rise.
	ps = resyncSession(t)
	feed(ps, 7, 100, nil)
	for i := 100; i < 105; i++ {
		ps.accept(stream.Score{Index: i, Value: -1})
	}
	feed(ps, 105, 200, nil)
	ps.accept(stream.Score{Index: 150, Value: ps.in.oracle[ps.pos(150)]})
	if ps.wrong != 6 || ps.shift != 0 {
		t.Errorf("five wrong values and a repeated index: wrong %d shift %d, want 6 and 0", ps.wrong, ps.shift)
	}
}
