package route

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"varade/internal/stream"
)

// The hand-off plane makes backend failure invisible to clients: the
// router already holds each session's Hello, so when a backend dies
// mid-session (relay EOF, write error, heartbeat TTL expiry, or a
// Draining announcement) the session is re-placed on the ring-order
// survivor, the Hello replayed, and the new backend warmed from a
// bounded replay ring of the client's most recent sample rows.
//
// Score continuity is an index-accounting exercise. Backends number
// scores by session-local sample index starting at zero, so after a
// hand-off the router rewrites each score index by the new backend's
// base offset (rows delivered before the replay ring's oldest row) and
// suppresses warmup duplicates — replayed windows whose scores the
// client already has — with a monotonic high-water mark. Because the
// ring keeps ReplayExtra rows beyond the w−1 a window needs, the new
// backend re-scores the last few windows: already-forwarded ones are
// suppressed, while windows lost in flight at the kill instant are
// recovered, shrinking the client-visible gap. Scores that do flow are
// bit-identical to an unbroken run (both backends serve the same model
// bytes and the scorer is deterministic).
//
// Hand-off reasons, as exposed in varade_router_handoff_total{reason}.
const (
	reasonBackendEOF = "backend_eof"
	reasonWriteError = "write_error"
	reasonTTLExpired = "ttl_expired"
	reasonDrain      = "drain"
)

// maxByeRetries bounds how many times a session re-delivers its Bye to
// a fresh backend when the previous one closed without settling the
// score stream. The bound only matters when a backend legitimately shed
// scores under backpressure (so the gap is unfillable); one warm
// hand-off otherwise settles every recoverable window.
const maxByeRetries = 2

// replayRing keeps the newest rows of a session's sample stream as raw
// wire bytes (channels×8 each, the Samples payload row encoding) in one
// flat buffer, bounded at capRows.
type replayRing struct {
	buf      []byte
	rowBytes int
	capRows  int
	next     int
	n        int
}

func newReplayRing(capRows, rowBytes int) *replayRing {
	if capRows < 1 {
		capRows = 1
	}
	return &replayRing{
		buf:      make([]byte, capRows*rowBytes),
		rowBytes: rowBytes,
		capRows:  capRows,
	}
}

func (r *replayRing) push(row []byte) {
	copy(r.buf[r.next*r.rowBytes:], row)
	r.next = (r.next + 1) % r.capRows
	if r.n < r.capRows {
		r.n++
	}
}

func (r *replayRing) len() int { return r.n }

// payload renders the ring's rows, oldest first, as one Samples frame
// payload (nil when empty).
func (r *replayRing) payload() []byte {
	if r.n == 0 {
		return nil
	}
	out := make([]byte, 4, 4+r.n*r.rowBytes)
	binary.LittleEndian.PutUint32(out, uint32(r.n))
	start := (r.next - r.n + r.capRows) % r.capRows
	for i := 0; i < r.n; i++ {
		j := (start + i) % r.capRows
		out = append(out, r.buf[j*r.rowBytes:(j+1)*r.rowBytes]...)
	}
	return out
}

// backoffDelay is the capped exponential redial backoff with ±50%
// jitter: base<<min(attempt−1,5), jittered to [d/2, 3d/2).
func backoffDelay(base time.Duration, attempt int, jitter func(int64) int64) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 5 {
		shift = 5
	}
	d := base << shift
	return d/2 + time.Duration(jitter(int64(d)))
}

// backendLink is one live backend connection of a proxied session.
type backendLink struct {
	bk   *backend
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// base maps the backend's session-local sample indices into the
	// client's: client index = backend index + base. Fixed at link
	// creation (rows delivered before the replayed ring's oldest row).
	base int64
	// readerDone closes when this link's backendReader has exited —
	// the hand-off barrier that keeps score order intact.
	readerDone chan struct{}
	// terminal records that the reader relayed a FrameError: the
	// session ended by protocol, not by failure.
	terminal atomic.Bool
}

// hsession is the per-session hand-off state machine. Four goroutines:
// clientReader feeds the toBackend bus, the manager owns the backend
// link (delivery, failure detection, re-placement), one backendReader
// per link feeds the toClient bus, and clientWriter drains it. Between
// links the manager waits for the old reader to exit before starting
// the next, so score order and the suppression high-water mark stay
// single-threaded without locks on the hot path.
type hsession struct {
	rt         *Router
	proto      int
	protoLabel string
	rawHello   []byte
	key        string
	model      string
	prec       string

	client net.Conn
	cbr    *bufio.Reader

	window   int
	rowBytes int

	ring      *replayRing
	delivered int64 // rows consumed from the client and committed to a backend
	lastScore int64 // highest client-space score index relayed; -1 before any
	rewrites  bool  // a hand-off happened: Scores frames need index rewriting

	toBackend *stream.Bus[relayFrame]
	bsub      <-chan relayFrame
	toClient  *stream.Bus[relayFrame]
	csub      <-chan relayFrame

	// mu guards the monitor-facing view: the current link and a nudge
	// reason set before the monitor severs it.
	mu          sync.Mutex
	link        *backendLink
	nudgeReason string
}

func (rt *Router) newHSession(client net.Conn, cbr *bufio.Reader, proto int, rawHello []byte, key, model, prec string) *hsession {
	s := &hsession{
		rt:         rt,
		proto:      proto,
		protoLabel: "v1",
		rawHello:   rawHello,
		key:        key,
		model:      model,
		prec:       prec,
		client:     client,
		cbr:        cbr,
		lastScore:  -1,
		toBackend:  stream.NewBus[relayFrame](),
		toClient:   stream.NewBus[relayFrame](),
	}
	if proto >= stream.ProtoV2 {
		s.protoLabel = "v2"
	}
	s.toBackend.SetDropCounter(rt.relayDrops("client_to_backend"))
	s.toClient.SetDropCounter(rt.relayDrops("backend_to_client"))
	s.bsub = s.toBackend.Subscribe(rt.cfg.RelayDepth)
	s.csub = s.toClient.Subscribe(rt.cfg.RelayDepth)
	return s
}

// setGeometry sizes the replay ring from the backend's Welcome: w−1
// rows warm a window boundary exactly, ReplayExtra more make the new
// backend re-score the most recent windows so scores lost in flight at
// the kill instant are recovered (the already-delivered ones are
// suppressed as duplicates).
func (s *hsession) setGeometry(w stream.Welcome) {
	s.window = w.Window
	if w.Channels <= 0 {
		return
	}
	s.rowBytes = w.Channels * 8
	warm := s.window - 1
	if warm < 0 {
		warm = 0
	}
	s.ring = newReplayRing(warm+s.rt.cfg.ReplayExtra, s.rowBytes)
}

// currentLink returns the monitor-facing view of the session's link.
func (s *hsession) currentLink() *backendLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.link
}

func (s *hsession) setLink(l *backendLink) {
	s.mu.Lock()
	s.link = l
	s.mu.Unlock()
}

// nudge severs the current backend link with a named reason — the
// health monitor's lever for TTL-expired and draining backends. The
// manager observes the reader exit and runs the normal failover path.
func (s *hsession) nudge(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.link != nil && s.nudgeReason == "" {
		s.nudgeReason = reason
		s.link.conn.Close()
	}
}

func (s *hsession) takeNudge() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.nudgeReason
	s.nudgeReason = ""
	return r
}

// run drives the session to completion: both client-side pumps plus the
// manager. It returns with every session goroutine exited and both
// connections closed.
func (s *hsession) run(first *backendLink) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.clientReader()
	}()
	go func() {
		defer wg.Done()
		s.clientWriter()
	}()
	s.manage(first)
	// manage has closed the toClient bus on every return path, so
	// clientWriter finishes flushing the tail frames and then closes the
	// client connection — which in turn unblocks clientReader. Closing
	// the connection here instead would race the writer out of the last
	// score batch.
	wg.Wait()
}

func (s *hsession) clientReader() {
	for {
		t, payload, err := stream.ReadFrame(s.cbr)
		if err != nil {
			s.toBackend.Close()
			return
		}
		s.toBackend.Publish(relayFrame{t: t, payload: payload})
	}
}

func (s *hsession) clientWriter() {
	bw := bufio.NewWriter(s.client)
	for f := range s.csub {
		if err := stream.WriteFrame(bw, f.t, f.payload); err != nil {
			break
		}
		if len(s.csub) == 0 {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	bw.Flush()
	s.client.Close()
}

// backendReader relays one link's frames to the client, rewriting score
// indices into client space and suppressing warmup duplicates after a
// hand-off. It exits when the link's connection dies or cleanly closes.
func (s *hsession) backendReader(l *backendLink) {
	defer close(l.readerDone)
	for {
		t, payload, err := stream.ReadFrame(l.br)
		if err != nil {
			return
		}
		switch t {
		case stream.FrameScores:
			if payload = s.rewriteScores(l, payload); payload == nil {
				continue // every entry was a suppressed warmup duplicate
			}
		case stream.FrameError:
			l.terminal.Store(true)
		case stream.FrameWelcome:
			continue // the client has its Welcome; never replay another
		}
		s.toClient.Publish(relayFrame{t: t, payload: payload})
	}
}

// rewriteScores maps a Scores payload into client index space and drops
// the prefix at or below the suppression high-water mark. Before the
// first hand-off the indices are already client-space and the payload
// passes through untouched (one 8-byte read keeps the mark fresh);
// afterwards indices shift by the link's base, in place. Returns nil
// when every entry was suppressed.
func (s *hsession) rewriteScores(l *backendLink, payload []byte) []byte {
	if len(payload) < 4 {
		return payload // malformed: relay verbatim, the client rejects it
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n == 0 || len(payload) != 4+n*16 {
		return payload
	}
	if !s.rewrites {
		last := int64(binary.LittleEndian.Uint64(payload[4+(n-1)*16:]))
		if last > s.lastScore {
			s.lastScore = last
		}
		return payload
	}
	drop := 0
	for i := 0; i < n; i++ {
		off := 4 + i*16
		idx := int64(binary.LittleEndian.Uint64(payload[off:])) + l.base
		binary.LittleEndian.PutUint64(payload[off:], uint64(idx))
		if idx <= s.lastScore && drop == i {
			drop = i + 1
		}
	}
	if last := int64(binary.LittleEndian.Uint64(payload[4+(n-1)*16:])); last > s.lastScore {
		s.lastScore = last
	}
	if drop == 0 {
		return payload
	}
	s.rt.replaySuppressed.Add(int64(drop))
	if drop == n {
		return nil
	}
	out := make([]byte, 4+(n-drop)*16)
	binary.LittleEndian.PutUint32(out, uint32(n-drop))
	copy(out[4:], payload[4+drop*16:])
	return out
}

// deliver writes one client frame to the link, with batched flushing,
// and accounts delivered rows into the replay ring on success.
func (s *hsession) deliver(l *backendLink, f relayFrame) error {
	if err := stream.WriteFrame(l.bw, f.t, f.payload); err != nil {
		return err
	}
	if len(s.bsub) == 0 {
		if err := l.bw.Flush(); err != nil {
			return err
		}
	}
	s.account(f)
	return nil
}

// account records a delivered Samples frame's rows in the replay ring.
func (s *hsession) account(f relayFrame) {
	if f.t != stream.FrameSamples || s.ring == nil || len(f.payload) < 4 {
		return
	}
	n := int(binary.LittleEndian.Uint32(f.payload))
	if len(f.payload) != 4+n*s.rowBytes {
		return // mis-sized batch: the backend will refuse it, don't warm from it
	}
	for i := 0; i < n; i++ {
		s.ring.push(f.payload[4+i*s.rowBytes : 4+(i+1)*s.rowBytes])
	}
	s.delivered += int64(n)
}

// manage is the state machine's spine: it delivers client frames to the
// current link, watches for the link's reader to exit, and decides
// between clean teardown and failover.
func (s *hsession) manage(first *backendLink) {
	cur := first
	s.setLink(cur)
	go s.backendReader(cur)
	byeSent := false
	byeRetries := 0
	for {
		select {
		case f, ok := <-s.bsub:
			if !ok {
				// Client input is over (EOF or error). Half-close toward
				// the backend so it flushes tail scores, wait for them,
				// then end the session cleanly.
				cur.bw.Flush()
				closeWrite(cur.conn)
				<-cur.readerDone
				s.teardown(cur)
				s.toClient.Close()
				return
			}
			if err := s.deliver(cur, f); err != nil {
				// A monitor nudge closes the link under the writer too:
				// the hand-off keeps the nudge's reason.
				reason := s.takeNudge()
				if reason == "" {
					reason = reasonWriteError
				}
				nl, ok := s.failover(cur, reason, &f)
				if !ok {
					return
				}
				cur = nl
			}
			if f.t == stream.FrameBye {
				byeSent = true
			}
		case <-cur.readerDone:
			if cur.terminal.Load() || (byeSent && (s.scoresSettled() || byeRetries >= maxByeRetries)) {
				// The backend finished the protocol (flushed after Bye,
				// or refused with a relayed terminal Error) — a clean
				// end, not a failure. byeSent alone proves nothing: TCP
				// accepts writes to a half-dead peer, so a buffered Bye
				// can "succeed" against a backend that already died. The
				// settled audit catches that case and fails over instead.
				s.teardown(cur)
				s.toClient.Close()
				return
			}
			reason := s.takeNudge()
			if reason == "" {
				reason = reasonBackendEOF
			}
			var pending *relayFrame
			if byeSent {
				// The new backend must see the Bye again or it will hold
				// the warmed session open waiting for more samples.
				byeRetries++
				pending = &relayFrame{t: stream.FrameBye}
			}
			nl, ok := s.failover(cur, reason, pending)
			if !ok {
				return
			}
			cur = nl
		}
	}
}

// scoresSettled reports whether a score for the last complete window
// delivered has come back through the relay — the audit that separates
// "backend flushed everything after Bye and closed" from "backend died
// with the Bye buffered toward a dead socket". Window w over delivered
// rows yields score indices w−1 … delivered−1, so the stream is settled
// exactly when the high-water mark has reached delivered−1.
func (s *hsession) scoresSettled() bool {
	if s.window <= 0 {
		return true // geometry unknown (unparsed Welcome): nothing to audit
	}
	if s.delivered < int64(s.window) {
		return true // no complete window yet, no score due
	}
	return s.lastScore >= s.delivered-1
}

// teardown releases one link without ending the client session.
func (s *hsession) teardown(l *backendLink) {
	s.setLink(nil)
	l.conn.Close()
	s.rt.untrack(l.conn)
	s.rt.endSession(l.bk)
}

// failover runs one hand-off: sever and drain the dead link, re-place
// with backoff under the hand-off deadline, warm the new backend from
// the replay ring, and resend the frame whose write failed (if any).
// On failure the session ends with a reasoned Bye (v2) or Error (v1)
// and failover returns ok=false.
func (s *hsession) failover(dead *backendLink, reason string, pending *relayFrame) (*backendLink, bool) {
	start := time.Now()
	s.setLink(nil)
	dead.conn.Close()
	<-dead.readerDone // preserve score order and the final high-water mark
	s.rt.untrack(dead.conn)
	s.takeNudge() // clear any racing monitor nudge against the dead link

	deadline := start.Add(s.rt.cfg.HandoffDeadline)
	link, _, _, err := s.acquireBackend(deadline, true)
	if err != nil {
		s.rt.endSession(dead.bk)
		s.rt.handoffCounter("varade_router_handoff_failures_total",
			"hand-offs that found no backend within the deadline", reason).Inc()
		s.endWithReason(fmt.Sprintf("route: session hand-off failed: %v", err))
		return nil, false
	}
	s.rewrites = true
	s.rt.moveSession(dead.bk, link.bk)
	s.rt.placements.Store(s.key, link.bk.id)
	s.rt.handoffAll.Add(1)
	s.rt.handoffCounter("varade_router_handoff_total",
		"sessions transparently re-placed on a surviving backend", reason).Inc()
	s.rt.handoffLatency.Record(time.Since(start).Nanoseconds())
	s.setLink(link)
	go s.backendReader(link)
	if pending != nil {
		// Resend the frame whose write failed: the new backend has only
		// the ring, and the ring excludes unaccounted rows. manage's
		// byeSent flag keys off the same frame after failover returns.
		if err := s.deliver(link, *pending); err != nil {
			return s.failover(link, reasonWriteError, pending)
		}
	}
	return link, true
}

// endWithReason terminates the client stream with a reasoned Bye (v2)
// or a terminal Error (v1), then closes the downstream bus.
func (s *hsession) endWithReason(reason string) {
	if s.proto >= stream.ProtoV2 {
		s.toClient.Publish(relayFrame{t: stream.FrameBye, payload: stream.EncodeByePayload(stream.Bye{Reason: reason})})
	} else {
		s.toClient.Publish(relayFrame{t: stream.FrameError, payload: []byte(reason)})
	}
	s.toClient.Close()
}

// acquireBackend dials a backend for this session under deadline,
// retrying with capped exponential backoff + jitter while the pool is
// empty or dials fail. Sessions waiting here occupy a slot in the
// router's bounded admission queue — when the queue is full the session
// is refused immediately rather than parked. With warm set (the
// hand-off path) the new backend is additionally fed the replay ring
// after its Welcome; the initial placement passes warm=false and
// forwards the returned Welcome to the client instead.
func (s *hsession) acquireBackend(deadline time.Time, warm bool) (*backendLink, stream.FrameType, []byte, error) {
	queued := false
	defer func() {
		if queued {
			s.rt.admitRelease()
		}
	}()
	attempt := 0
	for {
		bk, conn := s.rt.dialFirst(s.rt.place(s.model, s.prec, s.key))
		if bk != nil {
			link, replyT, reply, err := s.handshakeBackend(bk, conn, warm)
			if err == nil {
				return link, replyT, reply, nil
			}
			s.rt.tab.fail(bk.id)
			conn.Close()
			s.rt.untrack(conn)
		}
		if !queued {
			if !s.rt.admitAcquire() {
				return nil, 0, nil, fmt.Errorf("admission queue full")
			}
			queued = true
		}
		attempt++
		d := backoffDelay(s.rt.cfg.RedialBackoff, attempt, s.rt.jitter)
		if !time.Now().Add(d).Before(deadline) {
			return nil, 0, nil, fmt.Errorf("no healthy backend within deadline")
		}
		s.rt.redialBackoff.Record(d.Nanoseconds())
		select {
		case <-s.rt.stopCh:
			return nil, 0, nil, fmt.Errorf("router shutting down")
		case <-time.After(d):
		}
	}
}

// handshakeBackend opens one backend link: preamble + Hello replay,
// Welcome (or terminal) reply, and — on the warm path — the replay-ring
// Samples frame. The reply frame is returned raw for the initial
// handshake to forward.
func (s *hsession) handshakeBackend(bk *backend, conn net.Conn, warm bool) (*backendLink, stream.FrameType, []byte, error) {
	if !s.rt.track(conn) {
		return nil, 0, nil, fmt.Errorf("router shutting down")
	}
	magic := stream.FrameMagic
	if s.proto >= stream.ProtoV2 {
		magic = stream.FrameMagicV2
	}
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	var err error
	if _, err = bw.WriteString(magic); err == nil {
		err = stream.WriteFrame(bw, stream.FrameHello, s.rawHello)
	}
	if err == nil {
		err = bw.Flush()
	}
	var replyT stream.FrameType
	var reply []byte
	if err == nil {
		conn.SetReadDeadline(time.Now().Add(s.rt.cfg.DialTimeout))
		replyT, reply, err = stream.ReadFrame(br)
		conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("backend handshake: %w", err)
	}
	if warm && replyT != stream.FrameWelcome {
		// Mid-session the backend must re-grant the session; a terminal
		// reply here (model unloaded since placement) fails this
		// candidate and lets the retry loop try the next.
		return nil, 0, nil, fmt.Errorf("backend refused replayed hello")
	}
	link := &backendLink{
		bk:         bk,
		conn:       conn,
		br:         br,
		bw:         bw,
		readerDone: make(chan struct{}),
	}
	if warm {
		link.base = s.delivered
		if s.ring != nil && s.ring.len() > 0 {
			link.base = s.delivered - int64(s.ring.len())
			if err := stream.WriteFrame(bw, stream.FrameSamples, s.ring.payload()); err != nil {
				return nil, 0, nil, fmt.Errorf("warmup replay: %w", err)
			}
			if err := bw.Flush(); err != nil {
				return nil, 0, nil, fmt.Errorf("warmup replay: %w", err)
			}
		}
	}
	return link, replyT, reply, nil
}
