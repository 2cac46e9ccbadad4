package stream

import (
	"fmt"
	"sync"

	"varade/internal/detect"
	"varade/internal/obs"
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
// The samples go to a detect.Feed, one Extend per Push or PushBatch: a
// detector that scores streams incrementally does only the work no earlier
// window did, any other is handed the completed windows in batches, and the
// feed re-warms its stream whenever the detector reports that its inference
// program was replaced (Fit, Load, SetPrecision) — so the runner always
// scores with the model as it is now.
type Runner struct {
	feed     *detect.Feed
	channels int
	index    int
	nScore   int
	rows     []float64 // PushBatch's samples, concatenated; reused
	vals     []float64 // scores of the last Extend, reused
}

// NewRunner returns a runner for a fitted detector over streams of the
// given channel width.
func NewRunner(det detect.Detector, channels int) *Runner {
	return &Runner{feed: detect.NewFeed(det, channels), channels: channels}
}

// checkWidth panics unless sample has the runner's channel width.
func (r *Runner) checkWidth(sample []float64) {
	if len(sample) != r.channels {
		panic(fmt.Sprintf("stream: sample width %d, want %d", len(sample), r.channels))
	}
}

// Push feeds one sample and returns the resulting score, if a full window
// is available.
func (r *Runner) Push(sample []float64) (Score, bool) {
	r.checkWidth(sample)
	r.vals = r.feed.Extend(r.vals[:0], sample)
	r.index++
	if len(r.vals) == 0 {
		return Score{}, false
	}
	r.nScore++
	return Score{Index: r.index - 1, Value: r.vals[0]}, true
}

// PushBatch feeds a slice of samples and returns every score produced, in
// arrival order, through one Extend: a streaming detector takes the whole
// batch at once, and any other scores the windows it completes in batched
// calls — the fast path the edge runtime uses to drain a sample backlog at
// full hardware throughput. Scores are identical to pushing each sample
// through Push.
func (r *Runner) PushBatch(samples [][]float64) []Score {
	r.rows = r.rows[:0]
	for _, s := range samples {
		r.checkWidth(s)
		r.rows = append(r.rows, s...)
	}
	r.vals = r.feed.Extend(r.vals[:0], r.rows)
	r.index += len(samples)
	if len(r.vals) == 0 {
		return nil
	}
	r.nScore += len(r.vals)
	out := make([]Score, len(r.vals))
	first := r.index - len(r.vals)
	for i, v := range r.vals {
		out[i] = Score{Index: first + i, Value: v}
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
