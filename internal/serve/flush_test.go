package serve

import (
	"fmt"
	"math"
	"testing"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// flushRig is one serving group driven by hand: add and flush are called
// directly, with no flusher goroutine and no sockets, so a schedule replays
// exactly.
type flushRig struct {
	srv      *Server
	g        *modelGroup
	sessions []*session
	sent     []int      // samples admitted per session
	run      []admitted // add's scratch
}

func newFlushRig(t testing.TB, sc *core.Model, sessions int) *flushRig {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Room for every window the rig queues between flushes, and every
	// score a session is owed between drains.
	srv, err := NewServer(Config{Registry: reg, MaxBatch: 1 << 12, OutDepth: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	r := &flushRig{srv: srv, sent: make([]int, sessions)}
	r.g = newModelGroup(srv, "varade", "varade", 1, false, "", false, sc.Name(), sc, sc.Config().Channels)
	for i := 0; i < sessions; i++ {
		r.sessions = append(r.sessions, newSession(srv, r.g, newConnRW(nil), true, stream.SessionCaps{}, 0, 0))
	}
	return r
}

// add admits rows as the next samples of session i.
func (r *flushRig) add(i int, rows [][]float64) {
	s := r.sessions[i]
	r.run = r.run[:0]
	for _, row := range rows {
		r.run = append(r.run, admitted{sample: row})
	}
	if owed := r.sent[i] + len(rows) - max(r.sent[i], r.g.w-1); owed > 0 {
		s.outstanding.Add(int64(owed))
	}
	r.g.add(s, r.run, r.sent[i])
	r.sent[i] += len(rows)
}

// jitteredEdge returns an EdgeConfig-shaped VARADE model at precision p
// whose every parameter has been moved off its initial value by a
// seed-determined amount: equal seeds give twins.
func jitteredEdge(t testing.TB, channels int, seed uint64, p string) *core.Model {
	t.Helper()
	m, err := core.New(core.EdgeConfig(channels))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(seed)
	for _, prm := range m.Params() {
		d := prm.Value.Data()
		for i := range d {
			d[i] += 0.1 * rng.NormFloat64()
		}
	}
	if err := m.SetPrecision(p); err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzServeFlushSchedule replays, from one seed, a schedule the serving
// group must not be able to tell from any other: 1–4 sessions over one
// EdgeConfig-shaped model admit frames of random sizes, the group flushes
// at random points, and mid-stream it is swapped to a twin model or to the
// same weights at another precision; a third of the schedules start as an
// uncalibrated int8 group, which scores its first windows whole and then
// streams. Every session must get one score per window it completed, in
// order, from the scorer the group held at that flush: bit-identical to
// detect.ScoreSeries at float64, to that scorer's own window lane at int8,
// within 1e-4 of the float64 oracle at float32.
func FuzzServeFlushSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := tensor.NewRNG(seed)
		c := 1 + rng.Intn(4)
		precisions := []string{core.PrecisionFloat64, core.PrecisionFloat32, core.PrecisionInt8}
		oracle := jitteredEdge(t, c, seed, core.PrecisionFloat64)
		w := oracle.WindowSize()
		start := core.PrecisionFloat64
		if rng.Intn(3) == 0 {
			start = core.PrecisionInt8
		}
		cur := jitteredEdge(t, c, seed, start)
		rig := newFlushRig(t, cur, 1+rng.Intn(4))

		series := make([]*tensor.Tensor, len(rig.sessions))
		for i := range series {
			n := 1 + rng.Intn(4*w+30)
			if n == w {
				n++ // detect.ScoreSeries needs a series longer than its window
			}
			series[i] = tensor.RandNormal(rng, 0, 1, n, c)
		}
		type scored struct {
			stream.Score
			by *core.Model
		}
		got := make([][]scored, len(series))
		flush := func(trigger int) {
			rig.g.flush(trigger)
			for i, s := range rig.sessions {
				for len(s.out) > 0 {
					got[i] = append(got[i], scored{<-s.out, cur})
				}
			}
		}
		var events []string
		for {
			var open []int
			for i, s := range series {
				if rig.sent[i] < s.Dim(0) {
					open = append(open, i)
				}
			}
			if len(open) == 0 {
				break
			}
			i := open[rng.Intn(len(open))]
			k := min(1+rng.Intn(2*w+2), series[i].Dim(0)-rig.sent[i])
			rig.add(i, rowsOf(series[i].SliceRows(rig.sent[i], rig.sent[i]+k)))
			events = append(events, fmt.Sprintf("s%d+%d", i, k))
			if rng.Intn(3) == 0 {
				flush(trigFill)
				events = append(events, "flush")
			}
			if rng.Intn(12) == 0 {
				p := cur.Precision()
				if rng.Intn(2) == 0 {
					p = precisions[rng.Intn(len(precisions))]
				}
				cur = jitteredEdge(t, c, seed, p)
				rig.g.swap(cur, 2, cur.Name(), false)
				events = append(events, "swap:"+p)
			}
		}
		flush(trigDrain)
		name := fmt.Sprintf("seed %d, C=%d, start %s, schedule %v", seed, c, start, events)

		for i, s := range series {
			want := max(0, s.Dim(0)-w+1)
			if len(got[i]) != want {
				t.Fatalf("%s: session %d got %d scores, want %d", name, i, len(got[i]), want)
			}
			if want == 0 {
				continue
			}
			oracleScores := detect.ScoreSeries(oracle, s)
			for k, sc := range got[i] {
				idx := w - 1 + k
				if sc.Index != idx {
					t.Fatalf("%s: session %d score %d has index %d", name, i, k, sc.Index)
				}
				switch p := sc.by.Precision(); p {
				case core.PrecisionFloat64:
					if math.Float64bits(sc.Value) != math.Float64bits(oracleScores[idx]) {
						t.Fatalf("%s: session %d window %d = %x, detect.ScoreSeries %x", name, i, idx, sc.Value, oracleScores[idx])
					}
				case core.PrecisionFloat32:
					if d := math.Abs(sc.Value-oracleScores[idx]) / math.Max(1e-12, math.Abs(oracleScores[idx])); d > 1e-4 {
						t.Fatalf("%s: session %d window %d = %g at float32, oracle %g", name, i, idx, sc.Value, oracleScores[idx])
					}
				case core.PrecisionInt8:
					lane := sc.by.Score(s.SliceRows(idx-w+1, idx+1))
					if math.Float64bits(sc.Value) != math.Float64bits(lane) {
						t.Fatalf("%s: session %d window %d = %x, int8 window lane %x", name, i, idx, sc.Value, lane)
					}
				}
			}
		}
	})
}

// TestStreamingFlushSteadyState: a group's flush streams at every
// precision — an uncalibrated int8 group scores its first flush whole,
// latching its activation scales, and upgrades to the stream at the next —
// the warm-ups and fallback windows show in the group's counters once per
// cause, and once streaming, admitting rows and flushing them allocates
// nothing.
func TestStreamingFlushSteadyState(t *testing.T) {
	const channels, sessions, frame = 3, 2, 3
	for _, p := range []string{core.PrecisionFloat64, core.PrecisionFloat32, core.PrecisionInt8} {
		m := jitteredEdge(t, channels, 1, p)
		rig := newFlushRig(t, m, sessions)
		rows := rowsOf(tensor.RandNormal(tensor.NewRNG(2), 0, 1, 64*frame, channels))
		next := 0
		cycle := func() {
			for i := range rig.sessions {
				rig.add(i, rows[next:next+frame])
			}
			next = (next + frame) % len(rows)
			rig.g.flush(trigFill)
			for _, s := range rig.sessions {
				for len(s.out) > 0 {
					<-s.out
				}
			}
		}
		for k := 0; k < 8; k++ {
			cycle()
		}
		st := rig.g.status()
		wantFallback, wantWarms := int64(0), map[string]int64{"join": sessions, "swap": 0, "upgrade": 0, "program_replaced": 0}
		if p == core.PrecisionInt8 {
			// The first flush that completes windows scores the first
			// session's whole, calibrating; the other joins streaming, and
			// the first upgrades at the next flush.
			w := m.WindowSize()
			wantFallback = int64((w+frame-1)/frame*frame - w + 1)
			wantWarms["join"], wantWarms["upgrade"] = sessions-1, 1
		}
		if st.WindowFallback != wantFallback || fmt.Sprint(st.StreamWarms) != fmt.Sprint(wantWarms) {
			t.Fatalf("%s: fallback %d, warms %v; want %d, %v", p, st.WindowFallback, st.StreamWarms, wantFallback, wantWarms)
		}
		if raceEnabled {
			continue // sync.Pool is lossy under -race
		}
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Errorf("%s: %v allocs per steady-state add+flush, want 0", p, n)
		}
	}
}
