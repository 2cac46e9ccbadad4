package stream

import (
	"sync"

	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/tensor"
)

// Score is one runner output: the sample index and its anomaly score.
type Score struct {
	Index int
	Value float64
}

// Runner couples a detector to a live sample feed: every pushed sample
// that completes a window produces one score. It is the software shape of
// the testbed script in §4.3 ("continuously reads data from the sensors,
// prepares the data … and calls the inference function").
//
// A detector that scores streams incrementally (detect.NewStream) is fed
// the samples themselves, one Extend per Push or PushBatch, and does only
// the work no earlier window did; any other detector is handed each
// completed window. The raw window buffer is kept either way: it is what a
// stream is warmed from — lazily, at the first score owed, and again
// whenever the detector reports that its inference program was replaced
// (Fit, Load, SetPrecision) — so the runner always scores with the model
// as it is now.
type Runner struct {
	det    detect.Detector
	buf    *WindowBuffer
	index  int
	nScore int
	st     detect.Stream // live incremental stream, positioned after buf's newest sample; nil until a score is owed
	vals   []float64     // scores of the last extend, reused
	warms  int           // times a stream was warmed from buf
}

// NewRunner returns a runner for a fitted detector over streams of the
// given channel width.
func NewRunner(det detect.Detector, channels int) *Runner {
	return &Runner{det: det, buf: NewWindowBuffer(det.WindowSize(), channels)}
}

// extend scores, through the detector's incremental stream, the windows
// completed by rows — consecutive samples (n, C) that follow the buffered
// ones and are not yet in buf. ok is false when the detector scores only
// whole windows; nothing was consumed then.
func (r *Runner) extend(rows []float64) (scores []float64, ok bool) {
	if r.st != nil {
		if r.vals, ok = r.st.Extend(r.vals[:0], rows); ok {
			return r.vals, true
		}
		r.st = nil // the detector's program was replaced under it
	}
	st := detect.NewStream(r.det)
	if st == nil {
		return nil, false
	}
	// Warm the stream on the samples the next windows reach back to.
	k := min(r.buf.Len(), r.buf.window-1)
	hist := make([]float64, k*r.buf.channels)
	r.buf.CopyLastInto(hist, k)
	if _, ok = st.Extend(nil, hist); !ok {
		return nil, false
	}
	if r.vals, ok = st.Extend(r.vals[:0], rows); !ok {
		return nil, false
	}
	r.st = st
	r.warms++
	return r.vals, true
}

// Push feeds one sample and returns the resulting score, if a full window
// is available.
func (r *Runner) Push(sample []float64) (Score, bool) {
	if r.buf.Len() < r.buf.window-1 {
		// No score owed: only buffer the sample.
		r.buf.Push(sample)
		r.index++
		return Score{}, false
	}
	var scores []float64
	if len(sample) == r.buf.channels { // else buf.Push panics below
		scores, _ = r.extend(sample)
	}
	r.buf.Push(sample)
	r.index++
	r.nScore++
	if len(scores) == 1 {
		return Score{Index: r.index - 1, Value: scores[0]}, true
	}
	return Score{Index: r.index - 1, Value: r.det.Score(r.buf.Window())}, true
}

// PushBatch feeds a slice of samples and returns every score produced, in
// arrival order. A streaming detector takes the whole batch in one Extend;
// otherwise, when the detector's Capabilities report a batched path, the
// windows completed by the batch are materialised into one (N, W, C)
// tensor and scored in a single batched call — the fast path the edge
// runtime uses to drain a sample backlog at full hardware throughput.
// Scores are identical to pushing each sample through Push.
func (r *Runner) PushBatch(samples [][]float64) []Score {
	bs := detect.AsScorer(r.det)
	if !bs.Capabilities().Batched || len(samples) < 2 {
		var out []Score
		for _, s := range samples {
			if sc, done := r.Push(s); done {
				out = append(out, sc)
			}
		}
		return out
	}
	w, c := r.buf.window, r.buf.channels
	// The first window completes at the push that fills the buffer; every
	// push after that completes another.
	n := len(samples)
	if miss := w - r.buf.Len(); miss > 0 {
		n = len(samples) - miss + 1
	}
	if n <= 0 {
		for _, s := range samples {
			r.buf.Push(s)
			r.index++
		}
		return nil
	}
	if out := r.pushBatchStream(samples, n); out != nil {
		return out
	}
	// Score in chunks of at most detect.BatchChunk windows so draining an
	// arbitrarily large backlog keeps a bounded working set, mirroring
	// detect.ScoreSeriesBatched.
	maxChunk := n
	if maxChunk > detect.BatchChunk {
		maxChunk = detect.BatchChunk
	}
	wins := tensor.New(maxChunk, w, c)
	wd := wins.Data()
	out := make([]Score, 0, n)
	pending, flushed := 0, 0
	flush := func() {
		for i, v := range bs.ScoreBatch(wins.SliceRows(0, pending)) {
			out[flushed+i].Value = v
		}
		flushed += pending
		pending = 0
	}
	for _, s := range samples {
		r.buf.Push(s)
		r.index++
		if !r.buf.Full() {
			continue
		}
		r.buf.CopyWindowInto(wd[pending*w*c : (pending+1)*w*c])
		out = append(out, Score{Index: r.index - 1})
		r.nScore++
		if pending++; pending == maxChunk {
			flush()
		}
	}
	if pending > 0 {
		flush()
	}
	return out
}

// pushBatchStream is PushBatch through the detector's incremental stream:
// samples complete n ≥ 1 windows. It returns nil, having consumed nothing,
// when the detector scores only whole windows.
func (r *Runner) pushBatchStream(samples [][]float64, n int) []Score {
	c := r.buf.channels
	rows := make([]float64, 0, len(samples)*c)
	for _, s := range samples {
		if len(s) != c {
			return nil // buf.Push reports it on the window path
		}
		rows = append(rows, s...)
	}
	scores, ok := r.extend(rows)
	if !ok {
		return nil
	}
	for _, s := range samples {
		r.buf.Push(s)
	}
	r.index += len(samples)
	r.nScore += n
	out := make([]Score, n)
	for i, v := range scores {
		out[i] = Score{Index: r.index - n + i, Value: v}
	}
	return out
}

// Scored returns how many scores the runner has produced.
func (r *Runner) Scored() int { return r.nScore }

// Bus is a minimal in-process publish/subscribe fabric standing in for the
// testbed's MQTT broker: sensors publish samples, detector runners
// subscribe. Subscribers receive every sample published after they join;
// a slow subscriber drops the oldest queued samples rather than blocking
// the producer, matching real broker behaviour under backpressure.
//
// The element type is generic so callers can thread per-sample metadata
// through the queue without a parallel channel: the fleet server's
// sessions publish timestamped samples, so admission→enqueue wait is
// measurable end to end. Plain sample feeds use Bus[[]float64].
type Bus[T any] struct {
	mu     sync.Mutex
	subs   []chan T
	closed bool
	// Dropped counts samples discarded because a subscriber queue was full.
	dropped int
	// sink, when set, receives every drop as it happens — the live
	// per-group obs counter the server exposes, next to the session-local
	// dropped total above.
	sink *obs.Counter
}

// NewBus returns an empty bus.
func NewBus[T any]() *Bus[T] { return &Bus[T]{} }

// SetDropCounter attaches a live drop sink: every shed element also
// increments c. Call before publishing begins.
func (b *Bus[T]) SetDropCounter(c *obs.Counter) {
	b.mu.Lock()
	b.sink = c
	b.mu.Unlock()
}

// drop accounts one shed element. Callers hold b.mu.
func (b *Bus[T]) drop() {
	b.dropped++
	if b.sink != nil {
		b.sink.Inc()
	}
}

// Subscribe registers a new consumer with the given queue depth.
func (b *Bus[T]) Subscribe(depth int) <-chan T {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan T, depth)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch
	}
	b.subs = append(b.subs, ch)
	return ch
}

// Publish delivers sample to every subscriber, dropping the oldest queued
// sample of any full subscriber. The drop-and-retry sequence is bounded:
// if a racing consumer keeps the queue full after one eviction, the new
// sample itself is dropped (and counted) instead of spinning under the
// bus lock.
func (b *Bus[T]) Publish(sample T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, ch := range b.subs {
		select {
		case ch <- sample:
			continue
		default:
		}
		// Queue full: evict the oldest queued sample, then retry once.
		select {
		case <-ch:
			b.drop()
		default:
			// A consumer drained the queue between the two selects; the
			// retry below will succeed without evicting anything.
		}
		select {
		case ch <- sample:
		default:
			// Still full — a consumer-side race refilled the queue. Drop
			// the new sample rather than looping.
			b.drop()
		}
	}
}

// PublishDropNewest delivers sample to every subscriber whose queue has
// room and drops (and counts) the sample itself at any full one — the
// negotiable drop-newest admission policy: the queued backlog survives
// and the newest data is shed instead.
func (b *Bus[T]) PublishDropNewest(sample T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, ch := range b.subs {
		select {
		case ch <- sample:
		default:
			b.drop()
		}
	}
}

// Dropped returns the number of samples discarded under backpressure.
func (b *Bus[T]) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Close terminates all subscriber channels.
func (b *Bus[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, ch := range b.subs {
		close(ch)
	}
	b.subs = nil
}
