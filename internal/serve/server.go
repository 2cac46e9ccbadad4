package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"varade/internal/detect"
	"varade/internal/obs"
	"varade/internal/route"
	"varade/internal/stream"
)

// Config parameterises a fleet server.
type Config struct {
	// Registry resolves model references; required.
	Registry *Registry
	// DefaultModel ("name" or "name@vN") serves line-protocol clients and
	// binary clients whose Hello names no model.
	DefaultModel string
	// FlushInterval bounds how long a ready window waits before the
	// flush that scores it when no SLO budget is in force. Default 2ms.
	FlushInterval time.Duration
	// AnnounceTimeout bounds each heartbeat POST to the router's
	// control endpoint (StartAnnouncer). Default 2s.
	AnnounceTimeout time.Duration
	// SLOP99 is the per-group p99 coalescing-latency budget
	// (varade-serve -slo-p99). When set, each group's flusher fires at
	// min(fill target reached, oldest admitted window's deadline), where
	// the deadline is this budget minus the measured flush cost — so
	// batch amortisation is traded against an explicit tail-latency
	// target rather than the fixed FlushInterval. v2 sessions can
	// tighten (never loosen) their group's budget via the slo_p99_ms
	// capability. 0 disables the budget.
	SLOP99 time.Duration
	// ShedAdmission extends the SLO into the admission plane: a window
	// whose age already exceeds the group's SLO budget when it reaches
	// its group is shed (counted in varade_sched_shed_total): its row
	// still extends the session's stream, but no score is owed for it —
	// any flush it joined would emit past its deadline anyway. Opt-in (varade-serve -slo-shed) because it trades the
	// every-window-is-owed-a-score contract for freshness: consumers
	// that count scores against windows sent must read to Bye/EOF
	// rather than expecting an exact count. No effect without SLOP99.
	ShedAdmission bool
	// MaxBatch caps the windows a group queues across its sessions
	// between flushes; at the cap it flushes immediately and admission
	// waits. Default detect.BatchChunk.
	MaxBatch int
	// FillTargets overrides, per serving precision ("float64",
	// "float32", "int8"), the batch fill level at which a group flushes
	// without waiting for the next tick. Positive entries are clamped
	// to [1, MaxBatch]; absent or non-positive entries use the
	// built-in table:
	// int8 groups fill the whole buffer (the quantized engine's
	// per-batch overhead amortises best at large batches), float
	// groups flush at half — their GEMM amortisation has saturated by
	// then, so waiting longer only adds latency. Sessions that
	// negotiated a smaller SessionCaps.MaxBatch pull their group's
	// target down further (see modelGroup.recomputeFillTargetLocked).
	FillTargets map[string]int
	// QueueDepth is each session's inbound admission queue (samples);
	// when full the oldest queued sample is dropped, Bus-style.
	// Default 512.
	QueueDepth int
	// OutDepth is each session's outbound score queue; when full new
	// scores are dropped (and counted) rather than blocking the scorer.
	// Default QueueDepth.
	OutDepth int
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/ on
	// the metrics listener. Off by default: profiling endpoints are a
	// deliberate operator opt-in (varade-serve -pprof).
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = detect.BatchChunk
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.OutDepth <= 0 {
		c.OutDepth = c.QueueDepth
	}
	return c
}

// Server multiplexes many device sessions over shared detectors. One
// listener accepts both wire protocols (CSV lines and binary frames,
// told apart by the preamble); a model registry backs named detectors;
// and each model's serving group scores every session's new rows on its
// own stream, one flush per tick.
type Server struct {
	cfg Config
	met *metrics

	ln   net.Listener
	http *http.Server

	gctx    context.Context
	gcancel context.CancelFunc

	mu        sync.Mutex
	groups    map[string]*modelGroup
	sessions  map[*session]struct{}
	conns     map[net.Conn]struct{} // every live connection, incl. mid-handshake
	draining  bool
	announcer *route.Announcer // router registration heartbeat, if started
	sessID    atomic.Int64

	acceptWG sync.WaitGroup
	sessWG   sync.WaitGroup
	grpWG    sync.WaitGroup
}

// NewServer builds a server; Serve starts it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: Config.Registry is required")
	}
	cfg = cfg.withDefaults()
	gctx, gcancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		met:      newMetrics(),
		gctx:     gctx,
		gcancel:  gcancel,
		groups:   make(map[string]*modelGroup),
		sessions: make(map[*session]struct{}),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Serve starts accepting device sessions on addr (":0" picks a port)
// and returns the bound address immediately; sessions are handled on
// background goroutines until Shutdown.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				conn.Close()
				continue
			}
			s.conns[conn] = struct{}{}
			s.sessWG.Add(1)
			s.mu.Unlock()
			go s.handleConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// connRW couples a connection with its buffered writer so the session
// writer can batch small writes and flush explicitly.
type connRW struct {
	net.Conn
	bw *bufio.Writer
}

func newConnRW(c net.Conn) *connRW { return &connRW{Conn: c, bw: bufio.NewWriter(c)} }

func (c *connRW) Write(p []byte) (int, error) { return c.bw.Write(p) }
func (c *connRW) Flush() error                { return c.bw.Flush() }
func (c *connRW) Close() error {
	c.bw.Flush()
	return c.Conn.Close()
}

func (s *Server) handleConn(raw net.Conn) {
	defer s.sessWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	}()
	conn := newConnRW(raw)
	br := bufio.NewReader(raw)

	// Protocol sniff: binary sessions open with a versioned frame
	// preamble; CSV lines can never start with 'V'.
	proto := 0
	if peek, err := br.Peek(len(stream.FrameMagic)); err == nil {
		proto = stream.SniffProto(peek)
	}
	binary := proto > 0

	var grp *modelGroup
	var granted stream.SessionCaps
	reqBatch := 0
	var reqSLO time.Duration
	if binary {
		br.Discard(len(stream.FrameMagic))
		t, payload, err := stream.ReadFrame(br)
		if err != nil || t != stream.FrameHello {
			conn.Close()
			return
		}
		hello, err := stream.DecodeHello(proto, payload)
		if err != nil {
			s.refuse(conn, binary, err)
			return
		}
		req := hello.GetCaps()
		ref := hello.Model
		if ref == "" {
			ref = s.cfg.DefaultModel
		}
		name, version, err := ParseModelRef(ref)
		if err == nil && hello.Version > 0 {
			version = hello.Version
		}
		if err == nil {
			grp, err = s.group(name, version, req.Precision)
		}
		if err == nil && hello.Channels > 0 && hello.Channels != grp.c {
			err = fmt.Errorf("serve: model %s expects %d channels, client sends %d", grp.name, grp.c, hello.Channels)
		}
		if err != nil {
			s.refuse(conn, binary, err)
			return
		}
		welcome := stream.Welcome{Model: grp.name, Version: grp.servingVersion(), Window: grp.w, Channels: grp.c}
		if proto >= stream.ProtoV2 {
			granted = s.grant(grp, req)
			reqBatch = req.MaxBatch
			reqSLO = time.Duration(req.SLOP99Ms * float64(time.Millisecond))
			welcome.Proto = stream.ProtoV2
			welcome.Precision = granted.Precision
			welcome.MaxBatch = granted.MaxBatch
			welcome.DropPolicy = granted.DropPolicy
			welcome.SLOP99Ms = granted.SLOP99Ms
		}
		if err := stream.WriteJSONFrame(conn, stream.FrameWelcome, welcome); err != nil || conn.Flush() != nil {
			conn.Close()
			return
		}
	} else {
		name, version, err := ParseModelRef(s.cfg.DefaultModel)
		if err == nil {
			grp, err = s.group(name, version, "")
		}
		if err != nil {
			s.refuse(conn, binary, err)
			return
		}
	}

	sess := newSession(s, grp, conn, binary, granted, reqBatch, reqSLO)
	if !s.trackSession(sess, grp) {
		conn.Close()
		return
	}
	sess.run(br)
	s.untrackSession(sess, grp)
}

// fillTargetFor resolves the configured (or default) fill target for a
// serving precision.
func (s *Server) fillTargetFor(prec string) int {
	t, ok := s.cfg.FillTargets[prec]
	if !ok || t <= 0 {
		if prec == "int8" {
			t = s.cfg.MaxBatch
		} else {
			t = (s.cfg.MaxBatch + 1) / 2
		}
	}
	return max(1, min(t, s.cfg.MaxBatch))
}

// grant resolves a v2 capability request against the serving group and
// the server's own limits: the precision is whatever the group actually
// runs (the group was selected — or materialised — from the request, so
// an unservable precision was already refused), the score-frame cap is
// min(requested, server cap), and the drop policy defaults to oldest.
func (s *Server) grant(grp *modelGroup, req stream.SessionCaps) stream.SessionCaps {
	out := stream.SessionCaps{
		Precision:  grp.servingPrecision(),
		MaxBatch:   maxScoreFrame,
		DropPolicy: stream.DropOldest,
	}
	if req.MaxBatch > 0 && req.MaxBatch < out.MaxBatch {
		out.MaxBatch = req.MaxBatch
	}
	if req.DropPolicy == stream.DropNewest {
		out.DropPolicy = stream.DropNewest
	}
	// The granted latency budget is the tighter of the session's request
	// and the operator's configured floor; with neither, the field stays
	// zero and is omitted from the Welcome (pre-SLO byte compatibility).
	slo := s.cfg.SLOP99
	if req.SLOP99Ms > 0 {
		reqSLO := time.Duration(req.SLOP99Ms * float64(time.Millisecond))
		if slo <= 0 || reqSLO < slo {
			slo = reqSLO
		}
	}
	out.SLOP99Ms = float64(slo) / float64(time.Millisecond)
	return out
}

// refuse reports a handshake error to the client and closes.
func (s *Server) refuse(conn *connRW, binary bool, err error) {
	if binary {
		stream.WriteFrame(conn, stream.FrameError, []byte(err.Error()))
	} else {
		fmt.Fprintf(conn, "error: %v\n", err)
	}
	conn.Close()
}

func (s *Server) trackSession(sess *session, grp *modelGroup) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.sessions[sess] = struct{}{}
	grp.sessionJoined(sess, sess.reqBatch, sess.reqSLO)
	return true
}

func (s *Server) untrackSession(sess *session, grp *modelGroup) {
	s.mu.Lock()
	delete(s.sessions, sess)
	// Fold the session's admission drops into the aggregate (its Bus is
	// closed) inside the same critical section that removes it from the
	// live set: a concurrent Metrics must see these drops in exactly one
	// of the two places it sums.
	s.met.samplesDropped.Add(int64(sess.bus.Dropped()))
	s.mu.Unlock()
	grp.sessionLeft(sess)
}

// groupKey names one serving group: "name" or "name@vN", with a ":prec"
// suffix when the session negotiated an explicit precision. Sessions that
// ask for nothing share the model file's native group; sessions that pin
// a precision land in (or materialise) the matching derived group.
func groupKey(name string, version int, prec string) string {
	key := name
	if version > 0 {
		key = fmt.Sprintf("%s@v%d", name, version)
	}
	if prec != "" {
		key += ":" + prec
	}
	return key
}

// derivePrecision re-targets a freshly loaded detector to the requested
// serving precision. It returns the unified scorer and whether the
// engine was actually re-targeted away from the file's own precision (a
// derived variant — e.g. int8 lazily quantized from a float64 entry).
func derivePrecision(det detect.Detector, prec string) (detect.Scorer, bool, error) {
	sc := detect.AsScorer(det)
	if prec == "" || sc.Capabilities().Precision == prec {
		return sc, false, nil
	}
	caps := sc.Capabilities()
	if !caps.Supports(prec) {
		return nil, false, fmt.Errorf("serve: %s engine cannot serve precision %q (supports %v)",
			sc.Name(), prec, caps.Precisions)
	}
	setter, ok := det.(interface{ SetPrecision(string) error })
	if !ok {
		return nil, false, fmt.Errorf("serve: %s cannot be re-targeted to precision %q", sc.Name(), prec)
	}
	if err := setter.SetPrecision(prec); err != nil {
		return nil, false, err
	}
	return sc, true, nil
}

// group returns (creating and caching on first use) the serving group
// for a model reference at a negotiated precision ("" = the file's own).
// Version 0 tracks "latest at first use" and is hot-swappable via Reload;
// an explicit version pins the group. Each group owns its own detector
// instance — precision re-targeting mutates the engine, so groups never
// share one. The registry read and model reconstruction happen outside
// the server lock — a cold multi-megabyte model must not stall every
// other handshake and the metrics endpoint. Two racing first users may
// both load the model; the double-check under the lock keeps exactly one
// group (and one flusher), the loser's detector is discarded.
func (s *Server) group(name string, version int, prec string) (*modelGroup, error) {
	pinned := version > 0
	key := groupKey(name, version, prec)
	s.mu.Lock()
	g, ok := s.groups[key]
	s.mu.Unlock()
	if ok {
		return g, nil
	}

	path, v, err := s.cfg.Registry.Resolve(name, version)
	if err != nil {
		return nil, err
	}
	det, err := LoadDetector(path)
	if err != nil {
		return nil, err
	}
	sc, derived, err := derivePrecision(det, prec)
	if err != nil {
		return nil, err
	}
	c, ok := detectorChannels(det)
	if !ok || c <= 0 {
		return nil, fmt.Errorf("serve: cannot determine channel count of model %q", name)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.groups[key]; ok {
		return g, nil
	}
	g = newModelGroup(s, key, name, v, pinned, prec, derived, det.Name(), sc, c)
	s.groups[key] = g
	s.grpWG.Add(1)
	go func() {
		defer s.grpWG.Done()
		g.run(s.gctx)
	}()
	return g, nil
}

// Reload hot-swaps every non-pinned serving group of the named model —
// including every derived-precision variant — to the latest registry
// version. Live sessions keep their row history — each session's stream
// is re-warmed from it — and see the new model's scores from the next
// flush. The swap is all-or-nothing: each group's replacement is loaded, re-targeted to the group's negotiated
// precision and geometry-checked first, and only if every group can move
// does any group move, so a failed reload never leaves a stale derived
// group serving old weights next to fresh ones.
func (s *Server) Reload(name string) error {
	// Pick up versions imported by other processes against the same
	// registry directory before resolving "latest".
	if err := s.cfg.Registry.Rescan(); err != nil {
		return err
	}
	path, v, err := s.cfg.Registry.Resolve(name, 0)
	if err != nil {
		return err
	}
	s.mu.Lock()
	var targets []*modelGroup
	for _, g := range s.groups {
		if g.name == name && !g.pinned {
			targets = append(targets, g)
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return fmt.Errorf("serve: model %q is not being served", name)
	}
	type swapPlan struct {
		g       *modelGroup
		sc      detect.Scorer
		kind    string
		derived bool
	}
	plans := make([]swapPlan, 0, len(targets))
	for _, g := range targets {
		det, err := LoadDetector(path)
		if err != nil {
			return err
		}
		sc, derived, err := derivePrecision(det, g.reqPrec)
		if err != nil {
			return fmt.Errorf("serve: reload %s: group %s: %w", name, g.key, err)
		}
		if err := g.checkGeometry(sc, v); err != nil {
			return err
		}
		plans = append(plans, swapPlan{g, sc, det.Name(), derived})
	}
	for _, p := range plans {
		p.g.swap(p.sc, v, p.kind, p.derived)
	}
	return nil
}

// groupStatuses snapshots every serving group's status, sorted by group
// key — the shared collection step behind /metrics and /models.
func (s *Server) groupStatuses() []ModelStatus {
	s.mu.Lock()
	groups := make([]*modelGroup, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	statuses := make([]ModelStatus, 0, len(groups))
	for _, g := range groups {
		statuses = append(statuses, g.status())
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Key < statuses[j].Key })
	return statuses
}

// nextSessionID hands out monotonically increasing session ids for the
// /sessions listing.
func (s *Server) nextSessionID() int64 { return s.sessID.Add(1) }

// SessionStatus is one live session's slice of the /sessions payload:
// identity, its group, and the session's score-distribution sketch with
// a drift score against the group's distribution. DriftZ is the
// session mean's distance from the group mean in group standard
// deviations — the per-session drift signal the model-lifecycle loop
// (shadow scoring, recalibration triggers) watches.
type SessionStatus struct {
	ID      int64      `json:"id"`
	Group   string     `json:"group"`
	Model   string     `json:"model"`
	Remote  string     `json:"remote,omitempty"`
	Scores  *ScoreDist `json:"scores,omitempty"`
	DriftZ  *float64   `json:"drift_z,omitempty"`
	Pending int64      `json:"pending_windows"`
}

// SessionsSnapshot is the /sessions payload.
type SessionsSnapshot struct {
	Count    int             `json:"count"`
	Sessions []SessionStatus `json:"sessions"`
}

// Sessions snapshots every live session's score sketch, ordered by id.
func (s *Server) Sessions() SessionsSnapshot {
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })

	// One group-sketch snapshot per group, shared by its sessions.
	groupSk := make(map[*modelGroup]obs.WelfordSnapshot)
	out := SessionsSnapshot{Count: len(live), Sessions: make([]SessionStatus, 0, len(live))}
	for _, sess := range live {
		g := sess.grp
		gs, ok := groupSk[g]
		if !ok {
			gs = g.obs.sketch.Snapshot()
			groupSk[g] = gs
		}
		sk := sess.sketch.Snapshot()
		st := SessionStatus{
			ID:      sess.id,
			Group:   g.key,
			Model:   g.name,
			Remote:  sess.remote,
			Scores:  scoreDist(sk, g.kind),
			Pending: sess.outstanding.Load(),
		}
		if sk.Count > 0 {
			if std := gs.Stddev(); std > 0 {
				z := (sk.Mean - gs.Mean) / std
				st.DriftZ = &z
			}
		}
		out.Sessions = append(out.Sessions, st)
	}
	return out
}

// Metrics returns a point-in-time snapshot of the serving state.
func (s *Server) Metrics() Metrics {
	// Live sessions' drops and the folded aggregate are read under the
	// same lock untrackSession folds under, so a disconnecting session's
	// drops are counted exactly once.
	s.mu.Lock()
	drops := s.met.samplesDropped.Load()
	for sess := range s.sessions {
		drops += int64(sess.bus.Dropped())
	}
	s.mu.Unlock()
	m := s.met.snapshot(s.groupStatuses())
	m.SamplesDropped = drops
	return m
}

// ModelsSnapshot is the /models payload: what the registry holds and the
// serving groups live sessions have materialised from it — including the
// derived-precision variants, so a mixed-precision fleet is observable
// per group.
type ModelsSnapshot struct {
	Registry []ModelInfo   `json:"registry"`
	Groups   []ModelStatus `json:"groups"`
}

// Models returns the registry contents alongside the live serving groups.
func (s *Server) Models() ModelsSnapshot {
	return ModelsSnapshot{Registry: s.cfg.Registry.List(), Groups: s.groupStatuses()}
}

// WritePrometheus renders the server's metric registry plus the
// process-global compute-stage registry in the Prometheus text format —
// the body GET /metrics serves. Snapshot-time gauges (uptime, active
// sessions) are refreshed first so scrapes see current values.
func (s *Server) WritePrometheus(w io.Writer) {
	s.met.uptimeGauge.Set(time.Since(s.met.start).Seconds())
	s.met.activeGauge.Set(float64(s.met.sessionsActive.Load()))
	s.met.reg.WritePrometheus(w)
	obs.Global().WritePrometheus(w)
}

// ServeMetrics exposes the observability plane over HTTP on addr (":0"
// picks a port): GET /metrics (Prometheus text format), GET
// /metrics.json (the JSON snapshot, previously served at /metrics),
// GET /sessions (per-session score sketches), GET /healthz, GET /models
// (registry listing + live serving groups), POST /reload?model=name
// (hot swap), and — when Config.EnablePprof is set — /debug/pprof/. It
// returns the bound address.
func (s *Server) ServeMetrics(addr string) (string, error) {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Metrics())
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Sessions())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/models", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Models())
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		name := r.URL.Query().Get("model")
		if err := s.Reload(name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, "reloaded", name)
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.http = &http.Server{Handler: mux}
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: stop accepting, signal every
// session that input has ended, score and deliver everything already
// admitted, then stop the group flushers. If ctx expires first, remaining
// connections are closed hard (the pipeline still unwinds cleanly).
func (s *Server) Shutdown(ctx context.Context) error {
	// De-register from any router first so no new sessions are placed
	// here while the drain runs.
	s.stopAnnouncer(ctx)
	s.mu.Lock()
	s.draining = true
	live := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		live = append(live, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()

	// Half-close each connection's read side: readers see EOF and the
	// drain handshake (pump → group flusher → writer) runs to completion.
	for _, c := range live {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			c.Close()
		}
	}

	done := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	// All sessions are gone; let each flusher do its final drain and exit.
	s.gcancel()
	s.grpWG.Wait()

	if s.http != nil {
		s.http.Close()
	}
	return err
}
