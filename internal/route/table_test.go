package route

import (
	"testing"
	"time"
)

// TestLoadCountsOwnSessionsOnce: a backend's report can still count a
// session of this router's that closed before the report arrived, or miss
// one placed since; load counts each of the router's own sessions exactly
// once and the report only for the sessions beyond them. A just-closed
// session counted twice would make the next same-key placement look two
// sessions busier than an idle backend and swap it off its ring favourite.
func TestLoadCountsOwnSessionsOnce(t *testing.T) {
	tab := newTable(time.Minute)
	report := func(live int) *backend {
		return tab.upsert(Announcement{ID: "b1", Addr: "127.0.0.1:1", LiveSessions: live})
	}
	b := report(0)
	begin := func() { b.inflight.Add(1); b.proxied.Add(1) }
	end := func() { b.inflight.Add(-1) }
	steps := []struct {
		name string
		do   func()
		want int64
	}{
		{"A placed", begin, 1},
		{"report counts A", func() { report(1) }, 1},
		{"A closed", end, 0},
		{"report taken before the backend saw A close", func() { report(1) }, 0},
		{"B placed", begin, 1},
		{"report counts B", func() { report(1) }, 1},
		{"report counts three sessions placed elsewhere", func() { report(4) }, 4},
		{"B closed", end, 3},
		{"report after B closed", func() { report(3) }, 2}, // under, never over: the next report is exact
		{"next report", func() { report(3) }, 3},
	}
	for _, st := range steps {
		st.do()
		if got := b.load(); got != st.want {
			t.Fatalf("%s: load %d, want %d", st.name, got, st.want)
		}
	}
}
