package main

import (
	"math"
	"sort"
	"time"
)

// round is one measured slice of a run, in wall time.
type round struct {
	elapsed time.Duration
	windows int64     // windows scored (closed loop) or scores received (open loop)
	cpu     float64   // process CPU seconds spent in the round, the reference ticks' excluded
	lat     []float64 // per-operation (closed) or per-window (open) latency, ms
	good    []int64   // closed loop: the windows of each operation that passed the hard checks
	factor  float64   // machine-speed factor of the round (speed.go); 0 counts as 1
	rssMB   float64   // resident-set high-water mark of this round alone
	traced  bool      // spans were recorded during this round
}

func (r round) rate() float64 { return float64(r.windows) / r.elapsed.Seconds() }

// reference converts the rounds' CPU-bound durations to reference seconds:
// each divided by its round's speed factor. cpuOnly leaves elapsed time and
// latencies in wall time, for the open loops, where a timer sets them.
func reference(rs []round, cpuOnly bool) []round {
	out := make([]round, len(rs))
	for i, r := range rs {
		f := r.factor
		if f <= 0 {
			f = 1
		}
		r.cpu /= f
		if !cpuOnly {
			r.elapsed = time.Duration(float64(r.elapsed) / f)
			lat := make([]float64, len(r.lat))
			for j, v := range r.lat {
				lat[j] = v / f
			}
			r.lat = lat
		}
		out[i] = r
	}
	return out
}

// quietRounds returns the faster half of the rounds named by idx, ranked
// by windows per second of each round's own elapsed time. Interference on
// a shared box only ever slows a round, so the faster half estimates the
// undisturbed machine; the minimum would be outlier-prone and the mean
// moved 10% between identical runs.
func quietRounds(rs []round, idx []int) []int {
	idx = append([]int(nil), idx...)
	sort.SliceStable(idx, func(a, b int) bool { return rs[idx[a]].rate() > rs[idx[b]].rate() })
	return idx[:(len(idx)+1)/2]
}

func allRounds(rs []round) []int {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// pooled is the summary of a set of rounds taken together.
type pooled struct {
	rate         float64   // windows / elapsed
	cpuPerWindow float64   // CPU seconds / windows
	lat          []float64 // every latency sample of the rounds, sorted
}

func pool(rs []round, idx []int) pooled {
	var windows int64
	var elapsed time.Duration
	var cpu float64
	var p pooled
	for _, i := range idx {
		windows += rs[i].windows
		elapsed += rs[i].elapsed
		cpu += rs[i].cpu
		p.lat = append(p.lat, rs[i].lat...)
	}
	sort.Float64s(p.lat)
	if elapsed > 0 {
		p.rate = float64(windows) / elapsed.Seconds()
	}
	if windows > 0 {
		p.cpuPerWindow = cpu / float64(windows)
	}
	return p
}

// roundPercentile is the median, over the rounds named by idx, of each
// round's own p-th latency percentile: the figure of a typical round. It is
// a per-layer metric beside the pooled percentile — a tail that recurs in
// fewer than half the rounds (a host stall, but also a periodic flush of the
// program's own) is in the pooled figure and not in this one, so the gap
// between the two says whether a run's tail was spread or concentrated.
func roundPercentile(rs []round, idx []int, p float64) float64 {
	var per []float64
	for _, i := range idx {
		if len(rs[i].lat) == 0 {
			continue
		}
		lat := append([]float64(nil), rs[i].lat...)
		sort.Float64s(lat)
		per = append(per, percentile(lat, p))
	}
	return median(per)
}

// percentile interpolates linearly between the closest ranks of a sorted
// sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the driver uses for its spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4) // after clamping, as CPython does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// roundSummary is one round as the full report shows it: a disturbed
// stretch of a run is a dip in the rate or a bump in the others.
type roundSummary struct {
	Rate   float64 `json:"windows_per_s"`
	CPU    float64 `json:"cpu_s_per_mwindow"`
	P99Ms  float64 `json:"p99_ms"`
	RSSMB  float64 `json:"peak_rss_mb"`
	Speed  float64 `json:"speed_factor"`
	Traced bool    `json:"traced,omitempty"`
}

func summarize(rs []round) []roundSummary {
	out := make([]roundSummary, len(rs))
	for i, r := range rs {
		out[i] = roundSummary{Rate: r.rate(), P99Ms: roundPercentile(rs, []int{i}, 0.99), RSSMB: r.rssMB, Speed: r.factor, Traced: r.traced}
		if r.windows > 0 {
			out[i].CPU = r.cpu / float64(r.windows) * 1e6
		}
	}
	return out
}

// medianRSS is the median over rounds of each round's own resident-set
// high-water mark: the footprint of steady running, without set-up and
// without the one round a late garbage collection spiked.
func medianRSS(rs []round) float64 {
	rss := make([]float64, len(rs))
	for i, r := range rs {
		rss[i] = r.rssMB
	}
	return median(rss)
}

// roundIQRShare is the spread of the per-round rates: (q3 − q1) / median.
func roundIQRShare(rs []round) float64 {
	rates := make([]float64, len(rs))
	for i, r := range rs {
		rates[i] = r.rate()
	}
	q1, q3 := quartiles(rates)
	if m := median(rates); m > 0 {
		return (q3 - q1) / m
	}
	return 0
}
