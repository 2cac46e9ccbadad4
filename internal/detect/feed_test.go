package detect

import (
	"math"
	"testing"

	"varade/internal/tensor"
)

// sumDetector scores a window by the sum of its values, in row-major order.
// It streams unless noStream is set; its streams die when gen moves, as a
// model's do when its program is replaced.
type sumDetector struct {
	w, c, gen int
	noStream  bool
}

func (d *sumDetector) Name() string                     { return "sum" }
func (d *sumDetector) WindowSize() int                  { return d.w }
func (d *sumDetector) Fit(*tensor.Tensor) error         { return nil }
func (d *sumDetector) Score(win *tensor.Tensor) float64 { return win.Sum() }

func (d *sumDetector) NewStream() Stream {
	if d.noStream {
		return nil
	}
	return &sumStream{d: d, gen: d.gen}
}

// sumStream keeps every row it has been fed and sums each completed window
// as Score does.
type sumStream struct {
	d    *sumDetector
	gen  int
	rows []float64
}

func (s *sumStream) Extend(dst, rows []float64) ([]float64, bool) {
	if s.gen != s.d.gen {
		return dst, false
	}
	wc := s.d.w * s.d.c
	for len(rows) > 0 {
		s.rows = append(s.rows, rows[:s.d.c]...)
		rows = rows[s.d.c:]
		if len(s.rows) >= wc {
			sum := 0.0
			for _, v := range s.rows[len(s.rows)-wc:] {
				sum += v
			}
			dst = append(dst, sum)
		}
	}
	return dst, true
}

// feedSplits extends f by consecutive pieces of series, cycling through
// sizes, and returns every score.
func feedSplits(f *Feed, series *tensor.Tensor, sizes []int) []float64 {
	var out []float64
	c := series.Dim(1)
	data := series.Data()
	for i := 0; len(data) > 0; i++ {
		k := min(sizes[i%len(sizes)]*c, len(data))
		out = f.Extend(out, data[:k])
		data = data[k:]
	}
	return out
}

// TestFeedMatchesScoreSeries: whether the detector streams, scores whole
// windows one at a time or has a batched path, and however the rows are
// split — single rows, pieces on either side of the window, pieces past a
// BatchChunk — a feed scores every window as ScoreSeries does.
func TestFeedMatchesScoreSeries(t *testing.T) {
	const w, c = 5, 3
	series := tensor.RandNormal(tensor.NewRNG(7), 0, 1, 3*BatchChunk+11, c)
	for name, d := range map[string]Detector{
		"stream":  &sumDetector{w: w, c: c},
		"windows": &sumDetector{w: w, c: c, noStream: true},
		"const":   &constDetector{w: w},
	} {
		want := ScoreSeries(d, series)[w-1:]
		for _, sizes := range [][]int{{1}, {w - 1}, {w}, {w + 1}, {2, 9, 1}, {BatchChunk + 3}, {series.Dim(0)}} {
			got := feedSplits(NewFeed(d, c), series, sizes)
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d scores, want %d", name, sizes, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %v: score %d = %g, ScoreSeries %g", name, sizes, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFeedWarmCauses walks a feed through every reason to warm a stream and
// checks each is counted once, that windows scored whole are counted, and
// that the scores stay those of the detector the feed scores with.
func TestFeedWarmCauses(t *testing.T) {
	const w, c = 4, 2
	series := tensor.RandNormal(tensor.NewRNG(3), 0, 1, 40, c)
	rows := series.Data()
	d := &sumDetector{w: w, c: c, noStream: true}
	f := NewFeed(d, c)
	var got []float64
	step := func(k int) {
		got = f.Extend(got, rows[:k*c])
		rows = rows[k*c:]
	}
	check := func(when string, want FeedCounts) {
		t.Helper()
		if f.Counts() != want {
			t.Fatalf("%s: counts %+v, want %+v", when, f.Counts(), want)
		}
	}
	step(w - 1)
	check("filling", FeedCounts{})
	step(3) // no stream yet: three windows scored whole
	check("no stream", FeedCounts{Fallback: 3})
	d.noStream = false
	step(2)
	check("upgrade", FeedCounts{Warms: [NumWarmCauses]int64{WarmUpgrade: 1}, Fallback: 3})
	d.gen++
	step(5)
	check("program replaced", FeedCounts{Warms: [NumWarmCauses]int64{WarmUpgrade: 1, WarmProgramReplaced: 1}, Fallback: 3})
	twin := &sumDetector{w: w, c: c}
	f.Retarget(twin)
	step(1)
	check("swap", FeedCounts{Warms: [NumWarmCauses]int64{WarmUpgrade: 1, WarmProgramReplaced: 1, WarmSwap: 1}, Fallback: 3})

	fresh := NewFeed(d, c)
	fresh.Extend(nil, series.Data()[:w*c])
	if want := (FeedCounts{Warms: [NumWarmCauses]int64{WarmJoin: 1}}); fresh.Counts() != want {
		t.Fatalf("join: counts %+v, want %+v", fresh.Counts(), want)
	}

	fed := series.Dim(0) - len(rows)/c
	want := ScoreSeries(d, series.SliceRows(0, fed))[w-1:]
	if len(got) != len(want) {
		t.Fatalf("%d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d = %g, want %g", i, got[i], want[i])
		}
	}
}
