package main

import (
	"sort"
	"sync"
	"time"
)

// The speedometer is the benchmark's reference clock. The boxes this runs
// on change speed under the benchmark's feet: measured here every 5 s for
// two and a half hours, a fixed arithmetic loop ran at discrete speeds (6.04,
// 6.34, 7.25, 7.46, 7.69 and 8.46 µs, 1 : 1.4 end to end) that held for
// seconds to tens of minutes, steal time stayed at 0, and every CPU-bound
// figure of every workload moved with them. Two sets of runs of the same
// code cannot agree on seconds measured that way, whatever estimator is
// applied within a run. So CPU-bound durations are reported in reference
// seconds: wall or CPU seconds divided by the speed factor of the interval
// they were measured in, where the factor is the median duration of a frozen
// tick loop sampled throughout that interval over the loop's nominal
// duration. A change to the program moves the figure; a change of the
// machine's clock moves tick and program alike and cancels. Every report
// carries the wall-clock twin of each figure, and -aa prints both, so what
// the clock is worth stays measured: in the committed A/A the closed loops
// spread 0.03–0.055 with it and 0.06–0.23 without. What the tick does not
// see remains: neighbours competing for caches, memory bus and
// floating-point ports.
//
// Timer-bound durations — open-loop latency, which is set by the
// scheduler's fill wait — are not scaled: they do not follow the clock.

const (
	// tickNominal is the tick's duration on the machine this benchmark was
	// frozen on, in its fast state; it only fixes the unit.
	tickNominal = 6 * time.Microsecond
	// tickEvery spaces the samples: 200 a second, half a percent of one core.
	tickEvery = 5 * time.Millisecond
	// tickBurst ticks run back to back make one sample, and the fastest
	// counts. The sampling goroutine wakes on a core whose L1 and branch
	// predictors the program has just used: the first tick after a sleep ran
	// 4–20% slow by how long it had slept, the third runs at the clock's
	// speed (busy-loop ticks: 7.691 µs median, 7.682 µs first decile).
	tickBurst = 3
)

var tickSink float64

// tick runs the frozen reference loop: four independent multiply-add chains
// over 4 KB, 32 passes, 16k multiply-adds in all. The buffer stays in L1
// whatever the program does to the caches, so the tick follows the clock and
// nothing else. Two heavier loops were tried against it over ten minutes of
// a drifting box (eight chains over 16 KB, eight chains over 512 KB): they
// also slow down when a sibling thread competes for the floating-point
// ports or the L2, but by twice what the program slowed, and left
// engine-batch's ratio to them noisier (26%, 31%) than to this one (22%).
// It lives in the benchmark's own directory, so no later change to the
// program can touch it.
func tick(buf *[512]float64) time.Duration {
	t0 := time.Now()
	x0, x1, x2, x3 := 1.0, 1.0, 1.0, 1.0
	for r := 0; r < 32; r++ {
		for i := 0; i < len(buf); i += 4 {
			x0 = x0*0.999 + buf[i]
			x1 = x1*0.999 + buf[i+1]
			x2 = x2*0.999 + buf[i+2]
			x3 = x3*0.999 + buf[i+3]
		}
	}
	d := time.Since(t0)
	tickSink = x0 + x1 + x2 + x3
	return d
}

// speedometer samples the tick on its own goroutine for as long as the run
// lasts. A nil speedometer reports factor 1.
type speedometer struct {
	mu   sync.Mutex
	at   []time.Time     // when each sample ended, ascending
	took []time.Duration // its fastest tick
	cost []time.Duration // all its ticks together: the instrument's own CPU
	quit chan struct{}
	done chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var buf [512]float64
		for i := range buf {
			buf[i] = float64(i%7) * 1e-3
		}
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			best, all := time.Duration(0), time.Duration(0)
			for i := 0; i < tickBurst; i++ {
				d := tick(&buf)
				all += d
				if i == 0 || d < best {
					best = d
				}
			}
			s.mu.Lock()
			s.at, s.took, s.cost = append(s.at, time.Now()), append(s.took, best), append(s.cost, all)
			s.mu.Unlock()
		}
	}()
	return s
}

// stop ends the sampling goroutine and waits for it.
func (s *speedometer) stop() {
	close(s.quit)
	<-s.done
}

// over reports the interval [a, b]: its speed factor (median sample over
// nominal; above 1 on a slow machine) and the CPU seconds the ticks
// themselves spent in it, which are the instrument's and not the
// program's. An interval without a tick takes the factor of the whole run.
func (s *speedometer) over(a, b time.Time) (factor, cpu float64) {
	if s == nil {
		return 1, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(a) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(b) })
	in := s.took[lo:hi]
	for _, d := range s.cost[lo:hi] {
		cpu += d.Seconds()
	}
	if len(in) == 0 {
		in = s.took
	}
	if len(in) == 0 {
		return 1, cpu
	}
	sorted := append([]time.Duration(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[len(sorted)/2]) / float64(tickNominal), cpu
}
