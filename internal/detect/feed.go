package detect

import (
	"fmt"

	"varade/internal/tensor"
)

// WarmCause is why a Feed warmed a stream: what left it without a live one.
type WarmCause int

const (
	// WarmJoin is a new feed's first stream.
	WarmJoin WarmCause = iota
	// WarmSwap follows Retarget: the feed scores with another detector.
	WarmSwap
	// WarmUpgrade follows windows scored whole because the detector could
	// not stream yet (VARADE at int8 before its activation scales latch).
	WarmUpgrade
	// WarmProgramReplaced follows a live stream reporting that the
	// detector's inference program was replaced (Fit, Load, SetPrecision).
	WarmProgramReplaced
	// NumWarmCauses counts the causes above.
	NumWarmCauses
)

var warmCauseNames = [NumWarmCauses]string{"join", "swap", "upgrade", "program_replaced"}

// String returns the cause's metric label.
func (c WarmCause) String() string { return warmCauseNames[c] }

// FeedCounts tallies which path a Feed scored on.
type FeedCounts struct {
	// Warms counts streams warmed from the feed's row history, by cause.
	Warms [NumWarmCauses]int64
	// Fallback counts windows scored whole, through ScoreBatch.
	Fallback int64
}

// Feed scores one feed of consecutive samples with a detector: every row
// that completes a window yields that window's score, exactly the score
// ScoreSeries gives it (bit for bit at float64).
//
// A detector that streams (NewStream) is handed the rows themselves and
// does only the work no earlier window did. The stream is made lazily, at
// the first window owed, and warmed from the feed's own history of the
// last W−1 rows; it is warmed again whenever it reports that the
// detector's program was replaced, after Retarget, and once a detector
// that could not stream yet (int8 before calibration) can. Any other
// detector, and a streaming one while it cannot stream, has the completed
// windows materialised from that history and scored through ScoreBatch,
// BatchChunk at a time. Not safe for concurrent use.
type Feed struct {
	det  Detector
	sc   Scorer // det's scoring surface
	w, c int

	// hist holds the newest n ≤ W−1 rows — what a stream is warmed from
	// and a fallback window reaches back to — in a ring of W−1 row slots
	// written twice, at slot and slot+W−1, so the newest rows are always
	// one slice (recent). head is the slot the next row goes to.
	hist    []float64
	head, n int

	st     Stream    // live stream, positioned after hist's newest row
	cause  WarmCause // why the next stream is warmed
	counts FeedCounts
}

// NewFeed returns a feed of rows of the given channel width into d.
func NewFeed(d Detector, channels int) *Feed {
	w := d.WindowSize()
	if w <= 0 || channels <= 0 {
		panic(fmt.Sprintf("detect: feed of window %d over %d channels", w, channels))
	}
	return &Feed{det: d, sc: AsScorer(d), w: w, c: channels, hist: make([]float64, 2*(w-1)*channels)}
}

// Retarget makes the feed score with d from the next Extend on. The row
// history is kept: d's stream is warmed from it, and a window that reaches
// back before the swap sees the same rows it would have. d must have the
// window length and channel width the feed was made for.
func (f *Feed) Retarget(d Detector) {
	if d.WindowSize() != f.w {
		panic(fmt.Sprintf("detect: retargeting a window-%d feed at a window-%d detector", f.w, d.WindowSize()))
	}
	f.det, f.sc, f.st, f.cause = d, AsScorer(d), nil, WarmSwap
}

// Counts returns the feed's running tallies.
func (f *Feed) Counts() FeedCounts { return f.counts }

// Extend consumes rows — consecutive samples, time-major (n, C) — and
// appends to dst the score of every window they complete, in stream order:
// none until W samples have been fed in all, then one per row.
func (f *Feed) Extend(dst, rows []float64) []float64 {
	if len(rows)%f.c != 0 {
		panic(fmt.Sprintf("detect: feed rows of %d values, want a multiple of %d channels", len(rows), f.c))
	}
	defer f.remember(rows)
	if f.st != nil {
		if out, ok := f.st.Extend(dst, rows); ok {
			return out
		}
		f.st, f.cause = nil, WarmProgramReplaced
	}
	if f.n+len(rows)/f.c < f.w {
		return dst // no window completes: the rows are only remembered
	}
	if st := NewStream(f.det); st != nil {
		if _, ok := st.Extend(nil, f.recent(f.n)); ok {
			if out, ok := st.Extend(dst, rows); ok {
				f.st = st
				f.counts.Warms[f.cause]++
				return out
			}
		}
	}
	f.cause = WarmUpgrade
	return f.scoreWindows(dst, rows)
}

// recent returns the newest k ≤ n history rows, oldest first, in place.
func (f *Feed) recent(k int) []float64 {
	end := (f.head + f.w - 1) * f.c
	return f.hist[end-k*f.c : end]
}

// remember appends rows to the history, keeping the newest W−1.
func (f *Feed) remember(rows []float64) {
	c, slots := f.c, f.w-1
	if slots == 0 {
		return
	}
	if keep := slots * c; len(rows) > keep {
		rows = rows[len(rows)-keep:]
	}
	f.n = min(slots, f.n+len(rows)/c)
	for ; len(rows) > 0; rows = rows[c:] {
		copy(f.hist[f.head*c:], rows[:c])
		copy(f.hist[(f.head+slots)*c:], rows[:c])
		f.head = (f.head + 1) % slots
	}
}

// scoreWindows scores whole every window rows complete: the k held rows
// followed by rows form one sequence, and the window starting at its row
// s covers rows [s, s+W).
func (f *Feed) scoreWindows(dst, rows []float64) []float64 {
	w, c, k := f.w, f.c, f.n
	total := k + len(rows)/c - w + 1
	wins := tensor.New(min(BatchChunk, total), w, c)
	for start := 0; start < total; start += BatchChunk {
		n := min(BatchChunk, total-start)
		batch := wins.SliceRows(0, n)
		wd := batch.Data()
		tensor.Parallel(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				win, s := wd[j*w*c:(j+1)*w*c], start+j
				if s < k {
					copy(win, f.recent(k-s))
					win, s = win[(k-s)*c:], k
				}
				copy(win, rows[(s-k)*c:])
			}
		})
		dst = append(dst, f.sc.ScoreBatch(batch)...)
	}
	f.counts.Fallback += int64(total)
	return dst
}
