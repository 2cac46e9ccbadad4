// End-to-end tests for the sharded serving tier: real serve.Servers
// behind a real Router, driven by the real client. They live in
// package route_test because serve imports route (for the announcer) —
// the reverse import only exists here.
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

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// newSharedRegistry builds one registry holding a tiny VARADE model
// registered as "varade" — every backend in a test fleet serves from
// it, so scores are comparable across backends.
func newSharedRegistry(t *testing.T, channels int) (*serve.Registry, *core.Model) {
	t.Helper()
	reg, err := serve.OpenRegistry(t.TempDir())
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
	return reg, model
}

// newBackend starts one fleet server over the shared registry, with a
// metrics endpoint so the router can scrape it.
func newBackend(t *testing.T, reg *serve.Registry) (*serve.Server, string, string) {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{
		Registry:      reg,
		DefaultModel:  "varade",
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr, maddr
}

func synthRows(steps, channels int, seed uint64) [][]float64 {
	rng := tensor.NewRNG(seed)
	rows := make([][]float64, steps)
	walk := make([]float64, channels)
	for i := range rows {
		rows[i] = make([]float64, channels)
		for j := 0; j < channels; j++ {
			walk[j] += rng.NormFloat64() * 0.1
			rows[i][j] = walk[j]
		}
	}
	return rows
}

func seriesOf(rows [][]float64) *tensor.Tensor {
	s := tensor.New(len(rows), len(rows[0]))
	d := s.Data()
	c := len(rows[0])
	for i, r := range rows {
		copy(d[i*c:(i+1)*c], r)
	}
	return s
}

func waitHealthy(t *testing.T, rt *route.Router, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, b := range rt.Models().Backends {
			if b.Healthy {
				healthy++
			}
		}
		if healthy == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d healthy backends: %+v", want, rt.Models().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterE2E is the acceptance gate for the sharded tier: two
// backends behind one router, registered over the real announcement
// plane. Sessions land per (model, precision) placement key, v2
// Welcomes name the backend, v1 sessions pass through unchanged,
// float64 scores through the router are bit-identical to the
// single-process path, and the aggregated /metrics exposition lints
// with per-backend labels.
func TestRouterE2E(t *testing.T) {
	const (
		channels = 3
		steps    = 60
	)
	reg, model := newSharedRegistry(t, channels)
	srv1, addr1, maddr1 := newBackend(t, reg)
	defer srv1.Shutdown(context.Background())
	srv2, addr2, maddr2 := newBackend(t, reg)
	defer srv2.Shutdown(context.Background())

	rt := route.NewRouter(route.Config{DefaultModel: "varade", TTL: 2 * time.Second})
	raddr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := rt.ServeControl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	ctlURL := "http://" + ctl
	if err := srv1.StartAnnouncer(ctlURL, "b1", addr1, maddr1, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := srv2.StartAnnouncer(ctlURL, "b2", addr2, maddr2, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, rt, 2)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Placement: sessions sharing a (model, precision) key co-locate on
	// one backend, and the v2 Welcome names it. Each session is read to
	// its end before the next is dialled: Bye and Close return before the
	// router has torn the session down, and a favourite still holding two
	// draining sessions is, by design, busy enough to lose the next one.
	for _, prec := range []string{"float64", "float32", "int8"} {
		var backends []string
		for i := 0; i < 2; i++ {
			cl, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{Precision: prec})
			if err != nil {
				t.Fatalf("%s session %d: %v", prec, i, err)
			}
			w := cl.Welcome()
			if w.Backend != "b1" && w.Backend != "b2" {
				t.Fatalf("%s session: welcome backend %q", prec, w.Backend)
			}
			if w.Precision != prec {
				t.Fatalf("%s session: granted precision %q", prec, w.Precision)
			}
			backends = append(backends, w.Backend)
			if err := cl.Bye(); err != nil {
				t.Fatalf("%s session %d: bye: %v", prec, i, err)
			}
			if _, err := cl.ReadScores(); err != io.EOF {
				t.Fatalf("%s session %d: after bye read %v, want the stream's end", prec, i, err)
			}
			cl.Close()
		}
		if backends[0] != backends[1] {
			t.Fatalf("%s sessions split across %v, want co-located", prec, backends)
		}
	}

	// Bit-identity: a full float64 stream through the router must score
	// exactly like the per-device path (and like any direct backend).
	rows := synthRows(steps, channels, 42)
	want := detect.ScoreSeries(model, seriesOf(rows))
	w := model.WindowSize()
	for _, target := range []string{raddr, addr1} {
		cl, err := serve.Dial(ctx, target, "varade", channels)
		if err != nil {
			t.Fatal(err)
		}
		if b := cl.Welcome().Backend; b != "" {
			t.Fatalf("v1 welcome through %s names backend %q, must stay byte-identical", target, b)
		}
		var scores []stream.Score
		if err := cl.Run(ctx, rows, 16, func(sc stream.Score) { scores = append(scores, sc) }); err != nil {
			t.Fatalf("stream via %s: %v", target, err)
		}
		cl.Close()
		if len(scores) != steps-w+1 {
			t.Fatalf("via %s: %d scores, want %d", target, len(scores), steps-w+1)
		}
		for _, sc := range scores {
			if sc.Value != want[sc.Index] {
				t.Fatalf("via %s: score[%d] = %g, single-process path %g", target, sc.Index, sc.Value, want[sc.Index])
			}
		}
	}

	// Ring placement is visible on /models.
	resp, err := http.Get(ctlURL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var snap route.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Backends) != 2 {
		t.Fatalf("/models lists %d backends, want 2", len(snap.Backends))
	}
	if len(snap.Placements) == 0 {
		t.Fatal("/models shows no ring placements")
	}
	for key, id := range snap.Placements {
		if id != "b1" && id != "b2" {
			t.Fatalf("placement %q -> unknown backend %q", key, id)
		}
	}
	if _, ok := snap.Placements["varade@latest:int8"]; !ok {
		t.Fatalf("placements missing int8 key: %v", snap.Placements)
	}

	// The aggregated exposition lints, carries per-backend labels, and
	// merges the fleet-wide coalesce histogram.
	resp, err = http.Get(ctlURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if err := obs.LintPrometheusText(body); err != nil {
		t.Fatalf("aggregated /metrics does not lint: %v", err)
	}
	for _, needle := range []string{
		`backend="b1"`,
		`backend="b2"`,
		"varade_router_sessions_total{",
		"varade_fleet_coalesce_latency_ns_bucket{",
	} {
		if !strings.Contains(body, needle) {
			t.Fatalf("aggregated /metrics missing %q", needle)
		}
	}
}

// TestRouterBackendFailure kills a backend mid-session: the proxied
// client must keep streaming through a transparent hand-off (zero
// reconnects, scores bit-identical to an unbroken run), the router must
// not leak relay goroutines, the dead backend must drop from the ring,
// and a fresh session must land on the survivor.
func TestRouterBackendFailure(t *testing.T) {
	const channels = 2
	reg, model := newSharedRegistry(t, channels)
	srv1, addr1, _ := newBackend(t, reg)
	defer srv1.Shutdown(context.Background())
	srv2, addr2, _ := newBackend(t, reg)
	defer srv2.Shutdown(context.Background())

	rt := route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
	raddr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	// Manual registration (no announcer heartbeat): the kill below is a
	// crash, not a graceful de-registration.
	servers := map[string]*serve.Server{"b1": srv1, "b2": srv2}
	rt.Register(route.Announcement{ID: "b1", Addr: addr1})
	rt.Register(route.Announcement{ID: "b2", Addr: addr2})

	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.Welcome().Backend
	if servers[victim] == nil {
		t.Fatalf("welcome names unknown backend %q", victim)
	}

	// Prove the session is live: stream one window, read its score. The
	// full stream (4w rows) fits inside the replay ring (w−1+32), so the
	// hand-off below is lossless no matter how many rows race ahead of
	// the router's failure detection.
	w := model.WindowSize()
	steps := 4 * w
	rows := synthRows(steps, channels, 7)
	want := detect.ScoreSeries(model, seriesOf(rows))
	scores := make(chan stream.Score, steps)
	readDone := make(chan error, 1)
	go func() {
		defer close(scores)
		for {
			batch, err := cl.ReadScores()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				readDone <- err
				return
			}
			for _, sc := range batch {
				scores <- sc
			}
		}
	}()
	if err := cl.Send(rows[:w]); err != nil {
		t.Fatal(err)
	}
	select {
	case sc := <-scores:
		if sc.Value != want[sc.Index] {
			t.Fatalf("pre-kill score[%d] = %g, want %g", sc.Index, sc.Value, want[sc.Index])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no score from live session")
	}

	// Crash the victim: expired context forces connections closed.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	servers[victim].Shutdown(dead)

	// The SAME client keeps streaming: the router hands the session off
	// to the survivor (Hello replay + ring warmup) with zero client
	// reconnects, and every score stays bit-identical to the unbroken
	// oracle.
	for start := w; start < steps; start += 4 {
		end := start + 4
		if end > steps {
			end = steps
		}
		if err := cl.Send(rows[start:end]); err != nil {
			t.Fatalf("send after backend death: %v", err)
		}
	}
	if err := cl.Bye(); err != nil {
		t.Fatalf("bye after backend death: %v", err)
	}
	got := make(map[int]float64)
	got[w-1] = want[w-1] // the pre-kill score, already consumed
	deadlineCh := time.After(20 * time.Second)
collect:
	for {
		select {
		case sc, ok := <-scores:
			if !ok {
				break collect
			}
			if prev, dup := got[sc.Index]; dup && prev != sc.Value {
				t.Fatalf("score[%d] delivered twice with different values", sc.Index)
			}
			got[sc.Index] = sc.Value
		case <-deadlineCh:
			t.Fatal("score stream did not finish after hand-off")
		}
	}
	if err := <-readDone; err != nil {
		t.Fatalf("client stream errored across hand-off: %v", err)
	}
	cl.Close()
	for idx := w - 1; idx < steps; idx++ {
		v, ok := got[idx]
		if !ok {
			t.Fatalf("score[%d] missing after hand-off (got %d of %d)", idx, len(got), steps-w+1)
		}
		if v != want[idx] {
			t.Fatalf("score[%d] = %g across hand-off, want %g", idx, v, want[idx])
		}
	}
	if total, _, _ := rt.HandoffStats(); total < 1 {
		t.Fatalf("router recorded %d hand-offs, want >= 1", total)
	}

	// Reconnect: the ring still prefers the dead backend for this key,
	// so the router's dial fails it out and the session lands on the
	// survivor.
	survivor := "b1"
	if victim == "b1" {
		survivor = "b2"
	}
	cl2, err := serve.DialWith(ctx, raddr, "varade", channels, stream.SessionCaps{})
	if err != nil {
		t.Fatalf("reconnect after backend death: %v", err)
	}
	if got := cl2.Welcome().Backend; got != survivor {
		t.Fatalf("reconnect landed on %q, want survivor %q", got, survivor)
	}
	steps2 := 3 * w
	rows2 := synthRows(steps2, channels, 8)
	n := 0
	if err := cl2.Run(ctx, rows2, 8, func(stream.Score) { n++ }); err != nil {
		t.Fatalf("reconnected stream: %v", err)
	}
	cl2.Close()
	if wantN := steps2 - w + 1; n != wantN {
		t.Fatalf("reconnected stream scored %d windows, want %d", n, wantN)
	}

	// The dead backend is drained from the ring (dial failure marked it)…
	foundDead := false
	for _, b := range rt.Models().Backends {
		if b.ID == victim {
			foundDead = true
			if b.Healthy {
				t.Fatalf("dead backend %q still marked healthy", victim)
			}
		}
	}
	if !foundDead {
		t.Fatalf("dead backend %q missing from snapshot", victim)
	}

	// …and every relay goroutine of the severed session has exited. The
	// slack absorbs the survivor's lazily started serving-group flusher.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d+4; dump:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
