// Chaos suite for the hand-off plane: sessions driven through seeded
// connection kills, drains, and empty-pool admission — the failure
// weather the router must absorb without the client noticing.
package route_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"varade/internal/detect"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
)

// collectScores pumps one client's score stream into a channel until
// the server ends it, reporting the terminal error (nil for clean EOF).
func collectScores(cl *serve.Client, buf int) (<-chan stream.Score, <-chan error) {
	scores := make(chan stream.Score, buf)
	done := make(chan error, 1)
	go func() {
		defer close(scores)
		for {
			batch, err := cl.ReadScores()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				done <- err
				return
			}
			for _, sc := range batch {
				scores <- sc
			}
		}
	}()
	return scores, done
}

// drainScores gathers the collected stream into an index→value map,
// failing on conflicting duplicates or a stall.
func drainScores(t *testing.T, scores <-chan stream.Score, patience time.Duration) map[int]float64 {
	t.Helper()
	got := make(map[int]float64)
	deadline := time.After(patience)
	for {
		select {
		case sc, ok := <-scores:
			if !ok {
				return got
			}
			if prev, dup := got[sc.Index]; dup && prev != sc.Value {
				t.Fatalf("score[%d] delivered twice with different values", sc.Index)
			}
			got[sc.Index] = sc.Value
		case <-deadline:
			t.Fatalf("score stream still open after %v (got %d scores)", patience, len(got))
		}
	}
}

// requireScores asserts every window index in [w−1, steps) scored
// bit-identically to the oracle.
func requireScores(t *testing.T, got map[int]float64, want []float64, w, steps int) {
	t.Helper()
	for idx := w - 1; idx < steps; idx++ {
		v, ok := got[idx]
		if !ok {
			t.Fatalf("score[%d] missing (got %d of %d)", idx, len(got), steps-w+1)
		}
		if v != want[idx] {
			t.Fatalf("score[%d] = %g, want %g", idx, v, want[idx])
		}
	}
}

// waitGoroutines polls until the goroutine count settles at or under
// the bound.
func waitGoroutines(t *testing.T, bound int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= bound {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > %d; dump:\n%s",
				runtime.NumGoroutine(), bound, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterHandoffUnderChaos runs one long session while seeded chaos
// proxies kill its backend connection at randomized frame boundaries
// (and mid-frame) again and again. The client must never reconnect and
// never see an error; with the replay ring sized past the stream, every
// score must arrive bit-identical to an unbroken run, however many
// hand-offs it took. Run under -race in CI.
func TestRouterHandoffUnderChaos(t *testing.T) {
	const channels = 2
	const seed = 1789
	reg, model := newSharedRegistry(t, channels)
	srv1, addr1, _ := newBackend(t, reg)
	defer srv1.Shutdown(context.Background())
	srv2, addr2, _ := newBackend(t, reg)
	defer srv2.Shutdown(context.Background())

	cx1, err := route.NewChaos(addr1, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer cx1.Close()
	cx2, err := route.NewChaos(addr2, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	defer cx2.Close()

	rt := route.NewRouter(route.Config{
		DefaultModel:  "varade",
		TTL:           time.Hour,
		ReplayExtra:   256, // ring outlasts the whole stream: every kill recoverable
		RedialBackoff: time.Millisecond,
		JitterSeed:    seed,
	})
	raddr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rt.Register(route.Announcement{ID: "b1", Addr: cx1.Addr()})
	rt.Register(route.Announcement{ID: "b2", Addr: cx2.Addr()})

	baseline := runtime.NumGoroutine()

	// Arm before dialing: every proxied connection draws a kill budget
	// of 3–9 client frames, so the session dies over and over mid-flow
	// (the handshake itself — one Hello frame — always survives).
	cx1.ArmKill(3, 9)
	cx2.ArmKill(3, 9)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
	if err != nil {
		t.Fatal(err)
	}

	w := model.WindowSize()
	steps := 20 * w
	rows := synthRows(steps, channels, 11)
	want := detect.ScoreSeries(model, seriesOf(rows))
	scores, readDone := collectScores(cl, steps)

	for start := 0; start < steps; start += 4 {
		end := start + 4
		if end > steps {
			end = steps
		}
		if err := cl.Send(rows[start:end]); err != nil {
			t.Fatalf("send under chaos: %v", err)
		}
		// Pace the stream so scores interleave with kills rather than
		// the whole run landing in one socket buffer.
		time.Sleep(200 * time.Microsecond)
	}
	cx1.Disarm()
	cx2.Disarm()
	if err := cl.Bye(); err != nil {
		t.Fatalf("bye under chaos: %v", err)
	}
	got := drainScores(t, scores, 30*time.Second)
	if err := <-readDone; err != nil {
		t.Fatalf("client stream errored under chaos: %v", err)
	}
	cl.Close()
	requireScores(t, got, want, w, steps)

	if kills := cx1.Kills() + cx2.Kills(); kills < 1 {
		t.Fatal("seeded chaos schedule produced no kills")
	}
	total, _, p99 := rt.HandoffStats()
	if total < 1 {
		t.Fatalf("router recorded %d hand-offs, want >= 1", total)
	}
	if p99 <= 0 {
		t.Fatalf("hand-off latency p99 = %d ns, want > 0", p99)
	}
	var sb strings.Builder
	rt.WritePrometheus(&sb)
	for _, needle := range []string{
		"varade_router_handoff_total",
		"varade_router_handoff_latency_ns",
		"varade_router_redial_backoff_ns",
	} {
		if !strings.Contains(sb.String(), needle) {
			t.Fatalf("metrics exposition missing %s", needle)
		}
	}

	// Every relay incarnation, chaos pipe, and session goroutine is gone.
	waitGoroutines(t, baseline+6)
}

// TestRouterHandoffDrain marks a session's backend as draining and
// expects the health monitor to migrate the session to the survivor
// mid-stream with zero score loss, under the "drain" reason.
func TestRouterHandoffDrain(t *testing.T) {
	const channels = 2
	reg, model := newSharedRegistry(t, channels)
	srv1, addr1, _ := newBackend(t, reg)
	defer srv1.Shutdown(context.Background())
	srv2, addr2, _ := newBackend(t, reg)
	defer srv2.Shutdown(context.Background())

	rt := route.NewRouter(route.Config{
		DefaultModel:    "varade",
		TTL:             time.Hour,
		MonitorInterval: 5 * time.Millisecond,
		RedialBackoff:   time.Millisecond,
		JitterSeed:      7,
	})
	raddr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	anns := map[string]route.Announcement{
		"b1": {ID: "b1", Addr: addr1},
		"b2": {ID: "b2", Addr: addr2},
	}
	rt.Register(anns["b1"])
	rt.Register(anns["b2"])

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.Welcome().Backend

	w := model.WindowSize()
	steps := 4 * w
	rows := synthRows(steps, channels, 3)
	want := detect.ScoreSeries(model, seriesOf(rows))
	scores, readDone := collectScores(cl, steps)

	if err := cl.Send(rows[:w]); err != nil {
		t.Fatal(err)
	}
	select {
	case sc := <-scores:
		if sc.Value != want[sc.Index] {
			t.Fatalf("pre-drain score[%d] = %g, want %g", sc.Index, sc.Value, want[sc.Index])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no score before drain")
	}

	// Graceful de-registration: the backend stays up but leaves the
	// ring; the monitor must move the session off it.
	drainAnn := anns[victim]
	drainAnn.Draining = true
	rt.Register(drainAnn)

	for start := w; start < steps; start += 2 {
		end := start + 2
		if end > steps {
			end = steps
		}
		if err := cl.Send(rows[start:end]); err != nil {
			t.Fatalf("send during drain: %v", err)
		}
		time.Sleep(2 * time.Millisecond) // let the monitor tick mid-stream
	}
	// The monitor sweeps idle sessions too: wait for its hand-off rather
	// than race it with Bye.
	drained := func() bool {
		var sb strings.Builder
		rt.WritePrometheus(&sb)
		return strings.Contains(sb.String(), `varade_router_handoff_total{reason="drain"}`)
	}
	for deadline := time.Now().Add(10 * time.Second); !drained(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("drain hand-off not recorded under its reason label")
		}
	}
	if err := cl.Bye(); err != nil {
		t.Fatal(err)
	}
	got := drainScores(t, scores, 20*time.Second)
	if err := <-readDone; err != nil {
		t.Fatalf("client stream errored across drain: %v", err)
	}
	cl.Close()
	got[w-1] = want[w-1] // consumed above
	requireScores(t, got, want, w, steps)
}

// TestRouterAdmissionQueue covers the empty-pool path both ways: a
// session that arrives before any backend exists must wait in the
// bounded admission queue and be served the moment one registers; with
// a short admission deadline and no backend ever coming, the client
// must be refused with a reasoned v2 Bye, not a silent hangup.
func TestRouterAdmissionQueue(t *testing.T) {
	const channels = 2

	t.Run("served_after_register", func(t *testing.T) {
		reg, model := newSharedRegistry(t, channels)
		srv, addr, _ := newBackend(t, reg)
		defer srv.Shutdown(context.Background())

		rt := route.NewRouter(route.Config{
			DefaultModel:  "varade",
			TTL:           time.Hour,
			AdmissionWait: 10 * time.Second,
			RedialBackoff: time.Millisecond,
			JitterSeed:    11,
		})
		raddr, err := rt.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown(context.Background())

		// Register only after the client is already waiting in the queue.
		go func() {
			time.Sleep(100 * time.Millisecond)
			rt.Register(route.Announcement{ID: "late", Addr: addr})
		}()

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cl, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
		if err != nil {
			t.Fatalf("queued dial: %v", err)
		}
		defer cl.Close()
		w := model.WindowSize()
		rows := synthRows(w, channels, 5)
		n := 0
		if err := cl.Run(ctx, rows, 4, func(stream.Score) { n++ }); err != nil {
			t.Fatalf("queued session stream: %v", err)
		}
		if n != 1 {
			t.Fatalf("queued session scored %d windows, want 1", n)
		}
	})

	t.Run("refused_on_deadline", func(t *testing.T) {
		rt := route.NewRouter(route.Config{
			DefaultModel:  "varade",
			TTL:           time.Hour,
			AdmissionWait: 50 * time.Millisecond,
			RedialBackoff: time.Millisecond,
			JitterSeed:    13,
		})
		raddr, err := rt.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown(context.Background())

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, err = serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
		if err == nil {
			t.Fatal("dial succeeded with an empty pool")
		}
		if !strings.Contains(err.Error(), "no healthy backend") {
			t.Fatalf("refusal lost its reason: %v", err)
		}
	})
}

// TestRouterReloadOrchestration drives the router's fleet-wide model
// hot-swap: POST /reload on the control plane must reload every healthy
// backend in ID order and report per-backend JSON; a failing backend
// must stop the rollout (canary) with the remainder reported skipped.
func TestRouterReloadOrchestration(t *testing.T) {
	const channels = 2
	reg, _ := newSharedRegistry(t, channels)
	srv1, addr1, maddr1 := newBackend(t, reg)
	defer srv1.Shutdown(context.Background())
	srv2, addr2, maddr2 := newBackend(t, reg)
	defer srv2.Shutdown(context.Background())

	rt := route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
	defer rt.Shutdown(context.Background())
	caddr, err := rt.ServeControl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt.Register(route.Announcement{ID: "b1", Addr: addr1, MetricsAddr: maddr1})
	rt.Register(route.Announcement{ID: "b2", Addr: addr2, MetricsAddr: maddr2})

	// Reload swaps live serving groups, so each backend needs one: hold
	// an open session on both for the duration.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, addr := range []string{addr1, addr2} {
		cl, err := serve.DialWith(ctx, addr, "varade", channels, stream.SessionCaps{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
	}

	reload := func(model string) (int, map[string]any) {
		resp, err := http.Post("http://"+caddr+"/reload?model="+model, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := reload("varade")
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("fleet reload = %d %v, want 200 ok", status, body)
	}
	backends := body["backends"].([]any)
	if len(backends) != 2 {
		t.Fatalf("reload reported %d backends, want 2", len(backends))
	}
	for i, id := range []string{"b1", "b2"} {
		row := backends[i].(map[string]any)
		if row["backend"] != id || row["ok"] != true {
			t.Fatalf("reload row %d = %v, want %s ok", i, row, id)
		}
	}

	// Canary: an unknown model fails on b1 and must never reach b2.
	status, body = reload("no-such-model")
	if status != http.StatusBadGateway || body["ok"] != false {
		t.Fatalf("bad reload = %d %v, want 502 not-ok", status, body)
	}
	backends = body["backends"].([]any)
	first := backends[0].(map[string]any)
	second := backends[1].(map[string]any)
	if first["ok"] != false || first["error"] == "" {
		t.Fatalf("canary row did not fail with an error: %v", first)
	}
	if second["skipped"] != true {
		t.Fatalf("rollout continued past the canary failure: %v", second)
	}
}
