package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/stream"
)

// maxScoreFrame caps how many scores the writer packs into one outbound
// frame (or one buffered run of CSV lines).
const maxScoreFrame = 1024

// admitted is one sample plus its admission timestamp — stamped once
// per inbound frame by the reader, so the group can measure the
// admission→enqueue wait without any extra clock reads on the pump.
type admitted struct {
	sample []float64
	at     time.Time
}

// session is one device stream multiplexed onto the server: its sample
// index, its row queues in the group, its stream (a detect.Feed the group's
// flusher extends), and the two bounded queues that decouple the
// connection from the shared compute.
//
// Data path: reader goroutine (connection → admission Bus, drop-oldest
// under backpressure) → pump goroutine (runs of admitted samples → the
// group's row queue, under one lock per run) → flusher (shared; extends
// each session's own stream by its queued rows) → out queue → writer
// goroutine (scores → connection).
//
// A sample the admission Bus drops never reaches the stream, just as it
// never reached a window buffer: the session's stream — and the index of
// every later score — runs over the samples admitted. A window shed by
// Config.ShedAdmission is different: its score is dropped, but its row
// still extends the stream.
type session struct {
	srv    *Server
	grp    *modelGroup
	conn   *connRW
	binary bool

	// id names the session in /sessions; remote is the peer address.
	id     int64
	remote string

	// sketch accumulates the session's score distribution — the
	// per-session half of the drift-detection substrate. Only the group
	// flusher writes it; /sessions snapshots it.
	sketch obs.Welford

	// Granted v2 capabilities (defaults for v1/line sessions): the
	// outbound score-frame cap and the admission drop policy. reqBatch
	// keeps the frame cap the client itself asked for (0 = none) — it
	// also feeds the group's fill target.
	maxOut     int
	reqBatch   int
	dropNewest bool
	// reqSLO is the p99 coalescing-latency budget the client negotiated
	// (0 = none); it feeds the group's effective flush deadline.
	reqSLO time.Duration

	bus *stream.Bus[admitted] // admission control: bounded, negotiated policy
	in  <-chan admitted       // the bus subscription the pump drains
	out chan stream.Score     // scored results awaiting the writer

	index int // samples admitted to the group so far

	// queue holds the rows admitted since the group's last flush (guarded
	// by grp.mu); scoring holds the rows the flusher is scoring. The
	// flusher swaps the two at each flush, and alone touches what follows:
	// the session's stream, the scorer generation it follows, the scores
	// of its last Extend, and its path tallies as last folded into the
	// group's counters.
	queue, scoring rowQueue
	feed           *detect.Feed
	gen            uint64
	scores         []float64
	paths          detect.FeedCounts

	// outstanding counts queued windows whose scores have not yet been
	// emitted; the session closes its out queue only
	// when input is done AND outstanding reaches zero, so a graceful
	// drain never drops tail scores.
	outstanding atomic.Int64
	inputDone   atomic.Bool
	finishOnce  sync.Once
	flushed     chan struct{}

	// readErr records a malformed-input error so the writer can report
	// it to the client after the drained scores, before closing. Written
	// by the reader before bus.Close; the close → pump → out-close chain
	// orders it before the writer's final read.
	readErr string
}

func newSession(srv *Server, grp *modelGroup, conn *connRW, binary bool, granted stream.SessionCaps, reqBatch int, reqSLO time.Duration) *session {
	bus := stream.NewBus[admitted]()
	bus.SetDropCounter(grp.obs.busDrops)
	maxOut := granted.MaxBatch
	if maxOut <= 0 || maxOut > maxScoreFrame {
		maxOut = maxScoreFrame
	}
	remote := ""
	if conn.Conn != nil && conn.RemoteAddr() != nil {
		remote = conn.RemoteAddr().String()
	}
	return &session{
		srv:        srv,
		grp:        grp,
		conn:       conn,
		binary:     binary,
		id:         srv.nextSessionID(),
		remote:     remote,
		maxOut:     maxOut,
		reqBatch:   reqBatch,
		reqSLO:     reqSLO,
		dropNewest: granted.DropPolicy == stream.DropNewest,
		bus:        bus,
		in:         bus.Subscribe(srv.cfg.QueueDepth),
		out:        make(chan stream.Score, srv.cfg.OutDepth),
		flushed:    make(chan struct{}),
	}
}

// run drives the session to completion: it starts the pump and writer,
// consumes the connection until EOF/Bye/error, then drains — every
// admitted sample is queued, every window it completes is scored, every
// score is flushed to the client — before the connection closes.
func (s *session) run(br *bufio.Reader) {
	s.srv.met.sessionsTotal.Add(1)
	s.srv.met.sessionsActive.Add(1)
	defer s.srv.met.sessionsActive.Add(-1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.pump()
	}()
	go func() {
		defer wg.Done()
		s.writer()
	}()

	var err error
	if s.binary {
		err = s.readFrames(br)
	} else {
		err = s.readLines(br)
	}
	if err != nil {
		s.readErr = err.Error()
	}
	s.bus.Close() // pump drains what was admitted, then winds down
	wg.Wait()
}

// admit publishes one sample into the session's admission queue,
// stamped with its arrival time. When the pump can't keep up the Bus
// sheds under the session's negotiated policy — by default the oldest
// queued sample goes (freshest data wins); a drop-newest session sheds
// the incoming sample instead. Either way the reader never blocks.
func (s *session) admit(sample []float64, at time.Time) {
	s.srv.met.samplesIn.Add(1)
	if s.dropNewest {
		s.bus.PublishDropNewest(admitted{sample: sample, at: at})
	} else {
		s.bus.Publish(admitted{sample: sample, at: at})
	}
}

// readLines consumes the CSV line protocol until EOF; a malformed
// sample ends the session with an error the client gets to see.
func (s *session) readLines(br *bufio.Reader) error {
	return stream.ReadSamples(br, s.grp.c, func(sample []float64) bool {
		s.admit(sample, time.Now())
		return true
	})
}

// readFrames consumes the binary framing until Bye or EOF; a malformed
// payload ends the session with an error the client gets to see.
func (s *session) readFrames(br *bufio.Reader) error {
	for {
		t, payload, err := stream.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil // connection teardown, not a protocol error
			}
			return err // e.g. an oversized frame length
		}
		switch t {
		case stream.FrameSamples:
			samples, err := stream.DecodeSamplesPayload(payload, s.grp.c)
			if err != nil {
				return err
			}
			at := time.Now() // one clock read per frame, shared by its samples
			for _, sample := range samples {
				s.admit(sample, at)
			}
		case stream.FrameBye:
			return nil
		default:
			// Ignore unknown frame types for forward compatibility.
		}
	}
}

// pumpRun caps how many admitted samples the pump hands the group under
// one lock.
const pumpRun = 64

// pump hands admitted samples to the group's row queue: whatever has
// queued up on the admission Bus, up to pumpRun samples, goes under one
// lock. When the admission queue closes it marks input done and waits for
// every outstanding window's score to be emitted.
func (s *session) pump() {
	run := make([]admitted, 0, pumpRun)
	for a := range s.in {
		run = append(run[:0], a)
	gather:
		for len(run) < pumpRun {
			select {
			case a, ok := <-s.in:
				if !ok {
					break gather
				}
				run = append(run, a)
			default:
				break gather
			}
		}
		// Rows from the session's W-th on complete a window each.
		if owed := s.index + len(run) - max(s.index, s.grp.w-1); owed > 0 {
			s.outstanding.Add(int64(owed))
		}
		s.grp.add(s, run, s.index)
		s.index += len(run)
	}
	s.inputDone.Store(true)
	if s.outstanding.Load() == 0 {
		s.finish()
	} else {
		s.grp.kickNow() // flush the tail promptly rather than on the next tick
	}
	<-s.flushed
	close(s.out)
}

// emit delivers one score to the writer queue, dropping (and counting)
// when the client isn't draining fast enough — the flusher must never
// block on a slow connection.
func (s *session) emit(sc stream.Score) {
	select {
	case s.out <- sc:
	default:
		s.srv.met.scoresDropped.Add(1)
		s.grp.obs.scoreDrops.Inc()
	}
	s.scoreDone()
}

// scoreDone retires one outstanding window and completes the drain
// handshake once input has ended.
func (s *session) scoreDone() {
	if s.outstanding.Add(-1) == 0 && s.inputDone.Load() {
		s.finish()
	}
}

func (s *session) finish() {
	s.finishOnce.Do(func() { close(s.flushed) })
}

// writer streams scores back to the client, packing everything queued —
// up to the session's negotiated frame cap — into one frame (binary) or
// one buffered run of lines (CSV) per write. Write errors flip it into
// drain mode so the rest of the pipeline still unwinds cleanly.
func (s *session) writer() {
	defer s.conn.Close()
	dead := false
	batch := make([]stream.Score, 0, s.maxOut)
	for sc := range s.out {
		batch = append(batch[:0], sc)
	gather:
		for len(batch) < s.maxOut {
			select {
			case more, ok := <-s.out:
				if !ok {
					break gather
				}
				batch = append(batch, more)
			default:
				break gather
			}
		}
		if dead {
			continue
		}
		if err := s.writeScores(batch); err != nil {
			dead = true
		}
	}
	if !dead {
		if s.readErr != "" {
			if s.binary {
				stream.WriteFrame(s.conn, stream.FrameError, []byte(s.readErr))
			} else {
				fmt.Fprintf(s.conn, "error: %s\n", s.readErr)
			}
		}
		s.flushConn()
	}
}

func (s *session) writeScores(batch []stream.Score) error {
	if s.binary {
		if err := stream.WriteFrame(s.conn, stream.FrameScores, stream.EncodeScoresPayload(batch)); err != nil {
			return err
		}
	} else {
		for _, sc := range batch {
			if _, err := fmt.Fprintf(s.conn, "%d,%.17g\n", sc.Index, sc.Value); err != nil {
				return err
			}
		}
	}
	return s.flushConn()
}

func (s *session) flushConn() error { return s.conn.Flush() }
