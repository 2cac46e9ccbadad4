package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// newFleetServer builds a registry with one tiny VARADE model and a
// running server for it.
func newFleetServer(t *testing.T, channels int, cfg Config) (*Server, string, *core.Model) {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(core.TinyConfig(channels))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("varade", model); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	if cfg.DefaultModel == "" {
		cfg.DefaultModel = "varade"
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr, model
}

func rowsOf(series *tensor.Tensor) [][]float64 {
	out := make([][]float64, series.Dim(0))
	for i := range out {
		out[i] = series.Row(i).Data()
	}
	return out
}

// TestFleet64SessionsBitIdentical is the acceptance gate: 64 concurrent
// device sessions, each with its own stream, scored through cross-session
// batch coalescing — and every session's scores must be bit-identical to
// detect.ScoreSeries run on its series alone.
func TestFleet64SessionsBitIdentical(t *testing.T) {
	const (
		sessions = 64
		steps    = 50
		channels = 3
	)
	srv, addr, model := newFleetServer(t, channels, Config{
		FlushInterval: time.Millisecond,
		QueueDepth:    steps + 8, // no admission drops: the assertion needs every window
	})
	defer srv.Shutdown(context.Background())

	w := model.WindowSize()
	type result struct {
		id     int
		scores []stream.Score
		err    error
	}
	results := make(chan result, sessions)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for id := 0; id < sessions; id++ {
		go func(id int) {
			series := synthSeries(steps, channels, uint64(100+id))
			cl, err := Dial(ctx, addr, "", channels)
			if err != nil {
				results <- result{id: id, err: err}
				return
			}
			defer cl.Close()
			var scores []stream.Score
			err = cl.Run(ctx, rowsOf(series), 16, func(sc stream.Score) {
				scores = append(scores, sc)
			})
			results <- result{id: id, scores: scores, err: err}
		}(id)
	}
	for i := 0; i < sessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("session %d: %v", r.id, r.err)
		}
		series := synthSeries(steps, channels, uint64(100+r.id))
		want := detect.ScoreSeries(model, series)
		if len(r.scores) != steps-w+1 {
			t.Fatalf("session %d: %d scores want %d", r.id, len(r.scores), steps-w+1)
		}
		for j, sc := range r.scores {
			if sc.Index != w-1+j {
				t.Fatalf("session %d: score %d has index %d", r.id, j, sc.Index)
			}
			if sc.Value != want[sc.Index] {
				t.Fatalf("session %d: score at %d = %g, per-device path %g", r.id, sc.Index, sc.Value, want[sc.Index])
			}
		}
	}

	m := srv.Metrics()
	if m.TotalSessions != sessions {
		t.Fatalf("metrics sessions %d want %d", m.TotalSessions, sessions)
	}
	if want := int64(sessions * (steps - w + 1)); m.WindowsScored != want {
		t.Fatalf("metrics windows %d want %d", m.WindowsScored, want)
	}
	if m.SamplesDropped != 0 || m.ScoresDropped != 0 {
		t.Fatalf("unexpected drops: samples=%d scores=%d", m.SamplesDropped, m.ScoresDropped)
	}
	if m.Batches <= 0 || m.AvgBatchSize < 1 {
		t.Fatalf("implausible batching: %d batches avg %.2f", m.Batches, m.AvgBatchSize)
	}

	// The per-group amortisation table must be populated: every scored
	// window lands in exactly one (batch-size bucket) row.
	var ms *ModelStatus
	for i := range m.Models {
		if m.Models[i].Model == "varade" {
			ms = &m.Models[i]
		}
	}
	if ms == nil {
		t.Fatal("varade group missing from metrics")
	}
	if len(ms.Amortization) == 0 {
		t.Fatal("amortisation table empty after 64-session fleet run")
	}
	var amortWindows, amortFlushes int64
	for _, row := range ms.Amortization {
		if row.Flushes <= 0 || row.Windows <= 0 || row.NsPerWindow <= 0 {
			t.Fatalf("degenerate amortisation row %+v", row)
		}
		amortWindows += row.Windows
		amortFlushes += row.Flushes
	}
	if amortWindows != m.WindowsScored {
		t.Fatalf("amortisation windows %d != windows scored %d", amortWindows, m.WindowsScored)
	}
	if amortFlushes != m.Batches {
		t.Fatalf("amortisation flushes %d != batches %d", amortFlushes, m.Batches)
	}
	// The stage timers must have seen every window too.
	if st, ok := ms.Stages["score"]; !ok || st.Windows != m.WindowsScored {
		t.Fatalf("score stage %+v, want windows %d", ms.Stages["score"], m.WindowsScored)
	}
	// The group's score sketch covers all windows; it is VARADE-kind, so
	// mean predicted variance rides along.
	if ms.ScoreDist == nil || ms.ScoreDist.Count != uint64(m.WindowsScored) {
		t.Fatalf("score dist %+v, want count %d", ms.ScoreDist, m.WindowsScored)
	}
	if ms.ScoreDist.MeanPredVariance == nil {
		t.Fatal("VARADE group missing mean_pred_variance")
	}
	t.Logf("64 sessions: %d windows in %d batches (avg %.1f windows/batch), p99 coalesce %.2fms, %d amort rows",
		m.WindowsScored, m.Batches, m.AvgBatchSize, m.P99CoalesceMs, len(ms.Amortization))
}

// TestLineProtocolSession drives the server with the plain CSV line
// protocol — the netcat/legacy path — and checks scores line up with the
// per-device engine.
func TestLineProtocolSession(t *testing.T) {
	const steps, channels = 30, 2
	srv, addr, model := newFleetServer(t, channels, Config{})
	defer srv.Shutdown(context.Background())

	series := synthSeries(steps, channels, 11)
	want := detect.ScoreSeries(model, series)
	w := model.WindowSize()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < steps; i++ {
		fmt.Fprintln(conn, stream.EncodeSample(series.Row(i).Data()))
	}
	conn.(*net.TCPConn).CloseWrite()

	sc := bufio.NewScanner(conn)
	got := 0
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), ",", 2)
		if len(parts) != 2 {
			t.Fatalf("bad score line %q", sc.Text())
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if idx != w-1+got {
			t.Fatalf("score %d has index %d", got, idx)
		}
		if v != want[idx] {
			t.Fatalf("line score at %d = %g want %g", idx, v, want[idx])
		}
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != steps-w+1 {
		t.Fatalf("%d scores want %d", got, steps-w+1)
	}
}

// TestMalformedInputReported: a post-handshake protocol error (wrong
// sample width) must reach the client as an explicit error, after the
// scores already produced, rather than a silent clean-looking EOF.
func TestMalformedInputReported(t *testing.T) {
	srv, addr, model := newFleetServer(t, 2, Config{FlushInterval: time.Millisecond})
	defer srv.Shutdown(context.Background())
	w := model.WindowSize()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	series := synthSeries(w+3, 2, 55)
	for i := 0; i < series.Dim(0); i++ {
		fmt.Fprintln(conn, stream.EncodeSample(series.Row(i).Data()))
	}
	fmt.Fprintln(conn, "1,2,3") // three fields on a 2-channel session
	conn.(*net.TCPConn).CloseWrite()

	sc := bufio.NewScanner(conn)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4+1 { // 4 scores from w+3 samples, then the error line
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "error: ") {
		t.Fatalf("last line %q is not an error report", lines[len(lines)-1])
	}
}

// TestHotSwapReload registers a second version mid-session and asserts
// subsequent windows score under the new weights while the session (and
// its window state) stays up.
func TestHotSwapReload(t *testing.T) {
	const steps, channels = 40, 2
	srv, addr, model := newFleetServer(t, channels, Config{FlushInterval: time.Millisecond})
	defer srv.Shutdown(context.Background())
	reg := srv.cfg.Registry

	model2, err := core.New(core.Config{Window: 8, Channels: channels, BaseMaps: 4, KLWeight: 0.1, Seed: 424242})
	if err != nil {
		t.Fatal(err)
	}

	series := synthSeries(steps, channels, 21)
	w := model.WindowSize()
	wantV1 := detect.ScoreSeries(model, series)
	wantV2 := detect.ScoreSeries(model2, series)
	rows := rowsOf(series)
	half := steps / 2

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := Dial(ctx, addr, "varade", channels)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// First half under v1: send, then read exactly the scores those
	// pushes complete — a sync point guaranteeing the swap lands between
	// window batches.
	if err := cl.Send(rows[:half]); err != nil {
		t.Fatal(err)
	}
	firstWindows := half - w + 1
	var scores []stream.Score
	for len(scores) < firstWindows {
		batch, err := cl.ReadScores()
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, batch...)
	}
	for _, sc := range scores {
		if sc.Value != wantV1[sc.Index] {
			t.Fatalf("pre-swap score at %d = %g want v1 %g", sc.Index, sc.Value, wantV1[sc.Index])
		}
	}

	if _, err := reg.Register("varade", model2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload("varade"); err != nil {
		t.Fatal(err)
	}

	if err := cl.Send(rows[half:]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	var tail []stream.Score
	for {
		batch, err := cl.ReadScores()
		if err != nil {
			break // EOF after drain
		}
		tail = append(tail, batch...)
	}
	if len(tail) != steps-w+1-firstWindows {
		t.Fatalf("%d post-swap scores want %d", len(tail), steps-w+1-firstWindows)
	}
	for _, sc := range tail {
		if sc.Value != wantV2[sc.Index] {
			t.Fatalf("post-swap score at %d = %g want v2 %g (v1 would be %g)",
				sc.Index, sc.Value, wantV2[sc.Index], wantV1[sc.Index])
		}
	}
	// The session survived the swap: one session total, still the same
	// group, now at version 2.
	m := srv.Metrics()
	if len(m.Models) != 1 || m.Models[0].Version != 2 {
		t.Fatalf("model status %+v", m.Models)
	}
}

// TestGracefulShutdownDrainsTailScores opens a session that never says
// Bye, then shuts the server down: every admitted window's score must
// still reach the client before its connection closes.
func TestGracefulShutdownDrainsTailScores(t *testing.T) {
	const steps, channels = 30, 2
	srv, addr, model := newFleetServer(t, channels, Config{FlushInterval: time.Millisecond})
	w := model.WindowSize()

	series := synthSeries(steps, channels, 31)
	want := detect.ScoreSeries(model, series)

	ctx := context.Background()
	cl, err := Dial(ctx, addr, "", channels)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(rowsOf(series)); err != nil {
		t.Fatal(err)
	}
	// Send returns once the bytes hit the socket; the drain contract
	// covers *admitted* samples, so wait for the server to have read
	// them before pulling the plug.
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().SamplesIn < steps; {
		if time.Now().After(deadline) {
			t.Fatalf("server admitted only %d/%d samples", srv.Metrics().SamplesIn, steps)
		}
		time.Sleep(time.Millisecond)
	}

	var (
		mu     sync.Mutex
		scores []stream.Score
	)
	readDone := make(chan error, 1)
	go func() {
		for {
			batch, err := cl.ReadScores()
			if err != nil {
				readDone <- err
				return
			}
			mu.Lock()
			scores = append(scores, batch...)
			mu.Unlock()
		}
	}()

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-readDone

	mu.Lock()
	defer mu.Unlock()
	if len(scores) != steps-w+1 {
		t.Fatalf("drain delivered %d scores want %d", len(scores), steps-w+1)
	}
	for _, sc := range scores {
		if sc.Value != want[sc.Index] {
			t.Fatalf("drained score at %d = %g want %g", sc.Index, sc.Value, want[sc.Index])
		}
	}
}

// TestDialUnknownModelRefused asserts the handshake surfaces registry
// misses as client-visible errors.
func TestDialUnknownModelRefused(t *testing.T) {
	srv, addr, _ := newFleetServer(t, 2, Config{})
	defer srv.Shutdown(context.Background())
	if _, err := Dial(context.Background(), addr, "ghost", 2); err == nil {
		t.Fatal("expected refusal for unknown model")
	}
	if _, err := Dial(context.Background(), addr, "varade", 5); err == nil {
		t.Fatal("expected refusal for channel mismatch")
	}
}

// TestMetricsEndpoint exercises the HTTP snapshot surface.
func TestMetricsEndpoint(t *testing.T) {
	srv, addr, _ := newFleetServer(t, 2, Config{})
	defer srv.Shutdown(context.Background())
	maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Produce a little traffic first.
	series := synthSeries(20, 2, 41)
	cl, err := Dial(context.Background(), addr, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(context.Background(), rowsOf(series), 8, func(stream.Score) {}); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// The JSON snapshot moved to /metrics.json, shape preserved.
	body := httpGet(t, "http://"+maddr+"/metrics.json")
	for _, needle := range []string{"windows_scored", "p99_coalesce_ms", "active_sessions", `"model": "varade"`, "scored_per_sec_1m", `"scheduler"`, "fill_target", `"stream_warms"`, `"window_fallback"`} {
		if !strings.Contains(body, needle) {
			t.Fatalf("/metrics.json missing %q in %s", needle, body)
		}
	}

	// /metrics is Prometheus text: it must pass the lint and carry the
	// stage-labeled series for the traffic just produced.
	prom := httpGet(t, "http://"+maddr+"/metrics")
	if err := obs.LintPrometheusText(prom); err != nil {
		t.Fatalf("/metrics fails Prometheus lint: %v\n%s", err, prom)
	}
	for _, needle := range []string{
		`varade_serve_stage_ns_total{`,
		`stage="score"`,
		`stage="fill_wait"`,
		`stage="emit"`,
		`varade_coalesce_latency_ns_bucket{`,
		`varade_windows_scored_total`,
		`group="varade"`,
		`varade_sched_fill_target{`,
		`varade_sched_flushes_total{`,
		`trigger="fill"`,
		`trigger="deadline"`,
		`varade_sched_slo_ns{`,
		`varade_sched_empty_wakeups_total{`,
		`varade_sched_target_changes_total{`,
		`varade_serve_stream_warms_total{group="varade",reason="join"} 1`,
		`varade_serve_window_fallback_total{group="varade"} 0`,
	} {
		if !strings.Contains(prom, needle) {
			t.Fatalf("/metrics missing %q in %s", needle, prom)
		}
	}

	// /sessions reports the drift substrate; the session above has closed,
	// so only the counter shape is guaranteed.
	sess := httpGet(t, "http://"+maddr+"/sessions")
	if !strings.Contains(sess, `"count"`) {
		t.Fatalf("/sessions missing count in %s", sess)
	}

	if !strings.Contains(httpGet(t, "http://"+maddr+"/healthz"), "ok") {
		t.Fatal("healthz not ok")
	}
	if !strings.Contains(httpGet(t, "http://"+maddr+"/models"), "varade") {
		t.Fatal("models listing missing entry")
	}
	// The session streamed from its first window: one join, nothing whole.
	if g := srv.Models().Groups[0]; g.StreamWarms["join"] != 1 || g.WindowFallback != 0 {
		t.Fatalf("group %s: warms %v, fallback %d; want one join and no fallback", g.Key, g.StreamWarms, g.WindowFallback)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
