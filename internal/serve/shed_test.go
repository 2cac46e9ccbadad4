package serve

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"varade/internal/detect"
	"varade/internal/stream"
)

// TestAdmissionSLOShedding covers the admission-plane SLO gate on rows:
// a window whose age at admission already exceeds the group's SLO budget
// is shed — counted in varade_sched_shed_total, never scored, and its
// session's outstanding balance still retires — while its row still
// extends the session's stream, so the fresh windows after it flow through
// and score bit-identically to detect.ScoreSeries.
func TestAdmissionSLOShedding(t *testing.T) {
	const (
		channels = 2
		slo      = 50 * time.Millisecond
	)
	srv, _, model := newFleetServer(t, channels, Config{SLOP99: slo, ShedAdmission: true})
	defer srv.Shutdown(context.Background())

	g, err := srv.group("varade", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession(srv, g, newConnRW(nil), true, stream.SessionCaps{}, 0, 0)
	w := model.WindowSize()
	series := synthSeries(w+2, channels, 5)
	rows := rowsOf(series)
	want := detect.ScoreSeries(model, series)

	// W−1 fresh rows complete no window; the W-th completes the first, and
	// was admitted 10 SLOs ago: doomed, so shed rather than owed.
	now := time.Now()
	run := make([]admitted, w)
	for i := range run {
		run[i] = admitted{sample: rows[i], at: now}
	}
	run[w-1].at = now.Add(-10 * slo)
	sess.outstanding.Add(1)
	g.add(sess, run, 0)
	if got := g.obs.shedTotal.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := sess.outstanding.Load(); got != 0 {
		t.Fatalf("outstanding = %d after shed, want 0", got)
	}

	// Two fresh windows queue behind it and get scored within the SLO
	// machinery, over a stream that includes the shed window's row.
	sess.outstanding.Add(2)
	g.add(sess, []admitted{{sample: rows[w], at: time.Now()}, {sample: rows[w+1], at: time.Now()}}, w)
	deadline := time.Now().Add(5 * time.Second)
	for sess.outstanding.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("fresh windows never scored")
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.obs.shedTotal.Load(); got != 1 {
		t.Fatalf("fresh window was shed (counter %d)", got)
	}
	if len(sess.out) != 2 {
		t.Fatalf("%d scores emitted, want the 2 fresh windows' (the shed one is never scored)", len(sess.out))
	}
	for i := w; i < w+2; i++ {
		sc := <-sess.out
		if sc.Index != i || math.Float64bits(sc.Value) != math.Float64bits(want[i]) {
			t.Fatalf("score %+v, want index %d value %x from detect.ScoreSeries", sc, i, want[i])
		}
	}

	// The counter is exported and the scheduler block reports it.
	g.mu.Lock()
	shed := g.schedulerStatusLocked().Shed
	g.mu.Unlock()
	if shed != 1 {
		t.Fatalf("SchedulerStatus.Shed = %d, want 1", shed)
	}
	var b strings.Builder
	srv.WritePrometheus(&b)
	if !strings.Contains(b.String(), "varade_sched_shed_total{") {
		t.Fatal("varade_sched_shed_total missing from exposition")
	}
}
