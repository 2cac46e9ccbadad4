package varade

// Fleet-serving benchmarks: the scaling story of the serving subsystem.
//
//	BenchmarkFleetServe64      — 64 concurrent device sessions through the
//	                             fleet server, each flush extending every
//	                             session's stream by the rows it queued
//	BenchmarkFleetPerDevice64  — the same 64 streams through 64 independent
//	                             per-device runners (the scalar Push path),
//	                             i.e. the aggregate a fleet of standalone
//	                             processes achieves on the same cores
//
// Both report windows/s on identical work, so the ratio is what the
// serving layer's shared flush buys over one runner per device. Run with:
//
//	go test -run='^$' -bench=Fleet -benchtime=1x
import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"varade/internal/core"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

const (
	fleetSessions = 64
	fleetSteps    = 72 // samples per device per iteration
	fleetChannels = 17
)

// fleetModel returns the deterministic serving model: EdgeConfig
// topology at its seeded initialisation (scoring cost is identical to a
// trained model's).
func fleetModel(b *testing.B) *core.Model {
	b.Helper()
	m, err := core.New(core.EdgeConfig(fleetChannels))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// fleetStreams builds one deterministic series per device.
func fleetStreams(b *testing.B) []*tensor.Tensor {
	b.Helper()
	out := make([]*tensor.Tensor, fleetSessions)
	for i := range out {
		rng := tensor.NewRNG(uint64(1000 + i))
		s := tensor.New(fleetSteps, fleetChannels)
		d := s.Data()
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

func BenchmarkFleetServe64(b *testing.B) { benchFleetServe(b, "float64") }

// BenchmarkFleetServe64F32 serves the same fleet from a float32 model:
// each session streams through the float32 program.
func BenchmarkFleetServe64F32(b *testing.B) { benchFleetServe(b, "float32") }

// BenchmarkFleetServe64Int8 serves the fleet from an int8-quantized
// registry entry (the registry file itself is the VMF2 int8 container).
func BenchmarkFleetServe64Int8(b *testing.B) { benchFleetServe(b, "int8") }

// BenchmarkFleetServeMixed64 is the negotiated-session shape: ONE
// float64 registry entry, 64 protocol-v2 sessions requesting
// float64/float32/int8 round-robin, each precision in its own derived
// serving group.
func BenchmarkFleetServeMixed64(b *testing.B) { benchFleetServe(b, "mixed") }

// BenchmarkFleetServeBursty64 is the closed-loop scheduler's lane: the
// mixed fleet admits windows in 12-row bursts with idle gaps under a 5ms
// p99 SLO and a deliberately hopeless 50ms fallback flush interval, so
// every latency bound comes from the deadline scheduler. Reports the
// server-measured p50/p99 coalesce latency alongside windows/s (the
// throughput includes the idle gaps and is informational).
func BenchmarkFleetServeBursty64(b *testing.B) { benchFleetServe(b, "bursty") }

// BenchmarkFleetServeRouted64 is the sharded-tier lane: the mixed fleet
// dialed through a varade-router fronting two backend servers over one
// registry — each precision's sessions consistent-hash to one backend,
// so the number prices the relay hop plus the two-way split against
// BenchmarkFleetServeMixed64.
func BenchmarkFleetServeRouted64(b *testing.B) { benchFleetServe(b, "routed") }

func benchFleetServe(b *testing.B, precision string) {
	model := fleetModel(b)
	routed := precision == "routed"
	mixed := precision == "mixed" || precision == "bursty" || routed
	bursty := precision == "bursty"
	if !mixed {
		if err := model.SetPrecision(precision); err != nil {
			b.Fatal(err)
		}
	}
	streams := fleetStreams(b)
	w := model.WindowSize()

	reg, err := serve.OpenRegistry(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Register("varade", model); err != nil {
		b.Fatal(err)
	}
	flush := time.Millisecond
	var slo time.Duration
	if bursty {
		// The fallback interval is hopeless on purpose: the SLO deadline
		// scheduler must be what bounds the bursts' coalesce latency.
		flush, slo = 50*time.Millisecond, 5*time.Millisecond
	}
	backends := 1
	if routed {
		backends = 2
	}
	var srv *serve.Server // first backend, for Metrics()
	addrs := make([]string, backends)
	for i := 0; i < backends; i++ {
		s, err := serve.NewServer(serve.Config{
			Registry:      reg,
			DefaultModel:  "varade",
			FlushInterval: flush,
			SLOP99:        slo,
			QueueDepth:    fleetSteps + 8, // score every window: same work as per-device
		})
		if err != nil {
			b.Fatal(err)
		}
		if addrs[i], err = s.Serve("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		if i == 0 {
			srv = s
		}
	}
	addr := addrs[0]
	if routed {
		rt := route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
		var err error
		if addr, err = rt.Serve("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer rt.Shutdown(context.Background())
		for i, baddr := range addrs {
			rt.Register(route.Announcement{ID: fmt.Sprintf("b%d", i+1), Addr: baddr})
		}
	}

	// Steady-state serving: the 64 sessions dial once; each iteration
	// replays every device's stream through its live session. Windows
	// keep completing across iteration boundaries (the ring stays
	// primed), so only the first iteration pays the w−1 warmup.
	precisions := []string{"float64", "float32", "int8"}
	clients := make([]*serve.Client, fleetSessions)
	for id := range clients {
		var cl *serve.Client
		var err error
		if mixed {
			cl, err = serve.DialWith(context.Background(), addr, "", fleetChannels,
				stream.SessionCaps{Precision: precisions[id%len(precisions)]})
		} else {
			cl, err = serve.Dial(context.Background(), addr, "", fleetChannels)
		}
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients[id] = cl
	}
	rows := make([][][]float64, fleetSessions)
	for id := range rows {
		rows[id] = make([][]float64, fleetSteps)
		for r := range rows[id] {
			rows[id][r] = streams[id].Row(r).Data()
		}
	}

	totalWindows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expect := fleetSteps
		if i == 0 {
			expect = fleetSteps - w + 1
		}
		totalWindows += fleetSessions * expect
		var wg sync.WaitGroup
		for id := 0; id < fleetSessions; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cl := clients[id]
				step := fleetSteps
				if bursty {
					step = 12
				}
				for off := 0; off < fleetSteps; off += step {
					end := off + step
					if end > fleetSteps {
						end = fleetSteps
					}
					if err := cl.Send(rows[id][off:end]); err != nil {
						b.Error(err)
						return
					}
					if bursty && end < fleetSteps {
						time.Sleep(time.Millisecond)
					}
				}
				for got := 0; got < expect; {
					scores, err := cl.ReadScores()
					if err != nil {
						b.Error(err)
						return
					}
					got += len(scores)
				}
			}(id)
		}
		wg.Wait()
	}
	b.StopTimer()
	windowsPerSec := float64(totalWindows) / b.Elapsed().Seconds()
	b.ReportMetric(windowsPerSec, "windows/s")
	m := srv.Metrics()
	b.ReportMetric(m.AvgBatchSize, "windows/batch")
	if bursty {
		b.ReportMetric(m.P50CoalesceMs, "p50-coalesce-ms")
		b.ReportMetric(m.P99CoalesceMs, "p99-coalesce-ms")
	}
	for _, cl := range clients {
		cl.Bye()
	}
}

// BenchmarkFleetServeFailover64 is the fault-tolerance lane: the routed
// mixed fleet over two backends, with the backend serving session 0
// force-killed once every session has streamed half its rows. The
// orphaned sessions ride the router's transparent hand-off to the
// survivor (replay-ring warmup, duplicate suppression) while keeping
// their single client connection; sessions already on the survivor are
// the control group. Reports windows/s over scores actually received —
// windows in flight past the replay ring may be lost to the crash, so
// the number is survival throughput, not completeness — plus the
// router-measured hand-off p99. Each iteration builds a fresh fleet: a
// backend can only die once.
func BenchmarkFleetServeFailover64(b *testing.B) {
	model := fleetModel(b)
	streams := fleetStreams(b)
	rows := make([][][]float64, fleetSessions)
	for id := range rows {
		rows[id] = make([][]float64, fleetSteps)
		for r := range rows[id] {
			rows[id][r] = streams[id].Row(r).Data()
		}
	}
	precisions := []string{"float64", "float32", "int8"}

	totalScores := 0
	var handoffs, p99ns int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg, err := serve.OpenRegistry(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Register("varade", model); err != nil {
			b.Fatal(err)
		}
		srvs := make([]*serve.Server, 2)
		addrs := make([]string, len(srvs))
		for j := range srvs {
			s, err := serve.NewServer(serve.Config{
				Registry:      reg,
				DefaultModel:  "varade",
				FlushInterval: time.Millisecond,
				QueueDepth:    fleetSteps + 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if addrs[j], err = s.Serve("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			srvs[j] = s
		}
		rt := route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
		raddr, err := rt.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		for j, baddr := range addrs {
			rt.Register(route.Announcement{ID: fmt.Sprintf("b%d", j+1), Addr: baddr})
		}
		clients := make([]*serve.Client, fleetSessions)
		for id := range clients {
			cl, err := serve.DialWith(context.Background(), raddr, "", fleetChannels,
				stream.SessionCaps{Precision: precisions[id%len(precisions)]})
			if err != nil {
				b.Fatal(err)
			}
			clients[id] = cl
		}
		victim := srvs[0]
		if clients[0].Welcome().Backend == "b2" {
			victim = srvs[1]
		}
		dead, cancel := context.WithCancel(context.Background())
		cancel() // already expired: Shutdown force-closes instead of draining

		var sent, wg sync.WaitGroup
		sent.Add(fleetSessions)
		killed := make(chan struct{})
		go func() {
			sent.Wait()
			victim.Shutdown(dead)
			close(killed)
		}()
		got := make([]int, fleetSessions)
		b.StartTimer()
		for id := 0; id < fleetSessions; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cl := clients[id]
				send := func(part [][]float64) bool {
					for off := 0; off < len(part); off += 4 {
						end := off + 4
						if end > len(part) {
							end = len(part)
						}
						if err := cl.Send(part[off:end]); err != nil {
							b.Error(err)
							return false
						}
					}
					return true
				}
				mid := fleetSteps / 2
				ok := send(rows[id][:mid])
				sent.Done()
				<-killed
				if ok {
					ok = send(rows[id][mid:])
				}
				if ok {
					cl.Bye()
				}
				for {
					scores, err := cl.ReadScores()
					got[id] += len(scores)
					if err != nil {
						return
					}
				}
			}(id)
		}
		wg.Wait()
		b.StopTimer()
		for _, n := range got {
			totalScores += n
		}
		ht, _, hp99 := rt.HandoffStats()
		handoffs += ht
		if hp99 > p99ns {
			p99ns = hp99
		}
		for _, cl := range clients {
			cl.Close()
		}
		rt.Shutdown(context.Background())
		for _, s := range srvs {
			s.Shutdown(context.Background())
		}
		b.StartTimer()
	}
	b.StopTimer()
	if handoffs < 1 {
		b.Fatalf("recorded %d hand-offs, want >= 1 — the kill missed every session", handoffs)
	}
	b.ReportMetric(float64(totalScores)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(p99ns)/1e6, "p99-handoff-ms")
}

func BenchmarkFleetPerDevice64(b *testing.B) {
	model := fleetModel(b)
	streams := fleetStreams(b)
	w := model.WindowSize()

	windowsPerIter := fleetSessions * (fleetSteps - w + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < fleetSessions; id++ {
			r := stream.NewRunner(model, fleetChannels)
			n := 0
			for row := 0; row < fleetSteps; row++ {
				if _, ok := r.Push(streams[id].Row(row).Data()); ok {
					n++
				}
			}
			if n != fleetSteps-w+1 {
				b.Fatalf("runner %d: %d scores want %d", id, n, fleetSteps-w+1)
			}
		}
	}
	b.StopTimer()
	windowsPerSec := float64(windowsPerIter*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(windowsPerSec, "windows/s")
}
