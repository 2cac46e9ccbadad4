package route

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// backend is the router's record of one announced serving process.
// Announced fields are guarded by the owning table's mutex; the session
// counters are atomics so the proxy path never takes the table lock
// per frame.
type backend struct {
	id string

	// Guarded by table.mu.
	ann      Announcement
	lastSeen time.Time
	failed   bool // a dial failed after the last announcement
	draining bool

	// inflight is the router's own live proxied-session count; proxied
	// counts sessions ever placed here. annLive is the backend's
	// self-reported session count at its last announcement and annOwn how
	// many of this router's sessions that report may include, so load()
	// can count the router's sessions exactly and the backend's report
	// only for the rest — atomics, not ann fields, because load() runs on
	// the placement path without the table lock.
	inflight atomic.Int64
	proxied  atomic.Int64
	annLive  atomic.Int64
	annOwn   atomic.Int64

	// inflight and proxied at the last announcement. Guarded by table.mu.
	seenInflight, seenProxied int64
}

// load estimates the backend's live-session count: this router's live
// sessions, plus the sessions the last report counted beyond them.
func (b *backend) load() int64 {
	return max(0, b.annLive.Load()-b.annOwn.Load()) + b.inflight.Load()
}

// noteReport records an announcement's live-session count. The backend
// counted its sessions at some moment after the previous announcement
// reached us, and its count of one of ours can start before our begin and
// end after our end, so any of our sessions live here since then may be in
// it — a session closed a moment ago included. annOwn counts all of them:
// those live at the previous announcement plus every one placed since. That
// can only under-estimate the rest, which the next report corrects;
// charging a just-closed session twice would instead move the next
// placement off its ring favourite. Callers hold the table lock.
func (b *backend) noteReport(live int) {
	// proxied before inflight: a placement racing in between (inflight
	// rises first) is then counted twice, never missed.
	proxied := b.proxied.Load()
	inflight := b.inflight.Load()
	b.annOwn.Store(b.seenInflight + proxied - b.seenProxied)
	b.annLive.Store(int64(live))
	b.seenInflight, b.seenProxied = inflight, proxied
}

// table is the registration/health plane: the live backend set, aged by
// announcement TTL.
type table struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time // test hook

	backends map[string]*backend
}

func newTable(ttl time.Duration) *table {
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	return &table{ttl: ttl, now: time.Now, backends: make(map[string]*backend)}
}

// upsert applies one announcement: registration, heartbeat refresh, or
// (Draining) graceful de-registration. A fresh announcement clears a
// dial-failure mark — the backend is telling us it is back.
func (t *table) upsert(ann Announcement) *backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.backends[ann.ID]
	if b == nil {
		b = &backend{id: ann.ID}
		t.backends[ann.ID] = b
	}
	b.ann = ann
	b.lastSeen = t.now()
	b.failed = false
	b.draining = ann.Draining
	b.noteReport(ann.LiveSessions)
	return b
}

// fail marks a backend unreachable (a session dial failed). It stays
// out of the ring until its next announcement proves it back.
func (t *table) fail(id string) {
	t.mu.Lock()
	if b := t.backends[id]; b != nil {
		b.failed = true
	}
	t.mu.Unlock()
}

// backendView is a consistent read of one backend: the record pointer
// (for the atomic session counters) plus copies of the mutex-guarded
// announcement and health flags, valid at snapshot time.
type backendView struct {
	b        *backend
	ann      Announcement
	healthy  bool
	draining bool
	failed   bool
	lastSeen time.Time
}

// views snapshots the table, sorted by id for deterministic rings. With
// onlyHealthy set, it returns just the placeable backends: announced
// within TTL, not draining, not dial-failed.
func (t *table) views(onlyHealthy bool) []backendView {
	t.mu.Lock()
	defer t.mu.Unlock()
	cutoff := t.now().Add(-t.ttl)
	out := make([]backendView, 0, len(t.backends))
	for _, b := range t.backends {
		v := backendView{
			b:        b,
			ann:      b.ann,
			draining: b.draining,
			failed:   b.failed,
			lastSeen: b.lastSeen,
		}
		v.healthy = !b.failed && !b.draining && b.lastSeen.After(cutoff)
		if onlyHealthy && !v.healthy {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].b.id < out[j].b.id })
	return out
}

// supports reports whether the backend's announcement covers a serving
// precision ("" — the model file's own precision — is always
// serveable).
func supports(ann Announcement, prec string) bool {
	if prec == "" || len(ann.Precisions) == 0 {
		return true
	}
	for _, p := range ann.Precisions {
		if p == prec {
			return true
		}
	}
	return false
}

// advertises reports whether the backend announces the named model (an
// empty model list means "ask me anything": the backend did not
// enumerate).
func advertises(ann Announcement, model string) bool {
	if model == "" || len(ann.Models) == 0 {
		return true
	}
	for _, m := range ann.Models {
		if m.Name == model {
			return true
		}
	}
	return false
}
