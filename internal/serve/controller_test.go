package serve

import "testing"

// Synthetic-curve tests for the pure knee policy: the controller must
// converge to the knee of the ns/window curve and must NOT oscillate
// when measurement noise straddles the acquire threshold.

// curveRows builds one evaluation window's amortisation rows from
// batch-size → ns/window points, each bucket carrying enough windows to
// be trusted by the knee search.
func curveRows(points map[int]float64) []AmortRow {
	uppers := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	var rows []AmortRow
	for _, u := range uppers {
		ns, ok := points[u]
		if !ok {
			continue
		}
		rows = append(rows, AmortRow{
			BatchLE:     u,
			Flushes:     4,
			Windows:     schedMinBucketWindows * 4,
			NsPerWindow: ns,
		})
	}
	return rows
}

// feed runs the policy over the same curve for several evaluation
// windows and returns the final target.
func feed(p *schedPolicy, rows []AmortRow, times int) int {
	target := p.target
	for i := 0; i < times; i++ {
		target, _ = p.observe(rows)
	}
	return target
}

func TestPolicyFlatCurveConvergesToSmallestBatch(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	flat := curveRows(map[int]float64{1: 100, 2: 100, 4: 100, 8: 100, 16: 100, 32: 100})
	if got := feed(p, flat, schedConfirm); got != 1 {
		t.Fatalf("flat curve: target = %d, want 1 (no amortisation gain to wait for)", got)
	}
}

func TestPolicyKneeAtEight(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 105, 16: 100, 32: 98})
	if got := feed(p, knee8, schedConfirm); got != 8 {
		t.Fatalf("knee-at-8 curve: target = %d, want 8", got)
	}
	// One observation is not enough: min-dwell requires schedConfirm
	// consecutive windows before the first move.
	p2 := &schedPolicy{maxBatch: 256}
	if got := feed(p2, knee8, schedConfirm-1); got != 0 {
		t.Fatalf("target moved after %d windows, want unset until %d confirm", schedConfirm-1, schedConfirm)
	}
}

func TestPolicyKneeAtFullBuffer(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	// Strictly halving curve: amortisation never saturates, so the knee
	// is the whole buffer.
	desc := map[int]float64{}
	ns := 4096.0
	for b := 1; b <= 256; b *= 2 {
		desc[b] = ns
		ns /= 2
	}
	if got := feed(p, curveRows(desc), schedConfirm); got != 256 {
		t.Fatalf("descending curve: target = %d, want full buffer 256", got)
	}

	// A knee past the buffer capacity clamps to maxBatch.
	clamped := &schedPolicy{maxBatch: 48}
	if got := feed(clamped, curveRows(desc), schedConfirm); got != 48 {
		t.Fatalf("clamp: target = %d, want maxBatch 48", got)
	}
}

func TestPolicyNoOscillationUnderNoise(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 105, 16: 100, 32: 98})
	if got := feed(p, knee8, schedConfirm); got != 8 {
		t.Fatalf("setup: target = %d, want 8", got)
	}

	// Noisy windows where bucket 8 drifts above the acquire threshold
	// but stays inside the hold band: the Schmitt trigger keeps the
	// target at 8 through every permutation.
	noisy := [][]AmortRow{
		curveRows(map[int]float64{1: 980, 2: 510, 4: 260, 8: 120, 16: 100, 32: 99}),
		curveRows(map[int]float64{1: 1020, 2: 490, 4: 240, 8: 128, 16: 101, 32: 97}),
		curveRows(map[int]float64{1: 990, 2: 505, 4: 255, 8: 110, 16: 99, 32: 100}),
	}
	for round := 0; round < 20; round++ {
		target, moved := p.observe(noisy[round%len(noisy)])
		if moved || target != 8 {
			t.Fatalf("round %d: target moved to %d under in-band noise", round, target)
		}
	}

	// A real regime change — bucket 8 collapses far outside the hold
	// band — must still move the target once confirmed.
	shifted := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 400, 16: 100, 32: 98})
	if got := feed(p, shifted, schedConfirm); got != 16 {
		t.Fatalf("regime change: target = %d, want 16", got)
	}
}

func TestPolicyAlternatingKneeNeverConfirms(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 100, 16: 100})
	if got := feed(p, knee8, schedConfirm); got != 8 {
		t.Fatalf("setup: target = %d, want 8", got)
	}
	// Evaluation windows whose apparent knee flips 4↔16 every window
	// while bucket 8 has gone cold (absent): no candidate survives
	// schedConfirm consecutive windows, so the target never moves.
	a := curveRows(map[int]float64{1: 1000, 2: 500, 4: 110, 16: 100})
	b := curveRows(map[int]float64{1: 1000, 2: 500, 4: 300, 16: 100})
	for round := 0; round < 20; round++ {
		rows := a
		if round%2 == 1 {
			rows = b
		}
		if target, moved := p.observe(rows); moved || target != 8 {
			t.Fatalf("round %d: alternating noise moved target to %d", round, target)
		}
	}
}

func TestPolicySparseWindowsAreIgnored(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 100})
	if got := feed(p, knee8, schedConfirm); got != 8 {
		t.Fatalf("setup: target = %d, want 8", got)
	}
	sparse := []AmortRow{{BatchLE: 1, Flushes: 1, Windows: schedMinBucketWindows - 1, NsPerWindow: 10}}
	for i := 0; i < 5; i++ {
		if target, moved := p.observe(sparse); moved || target != 8 {
			t.Fatalf("sparse window moved target to %d", target)
		}
	}
	if target, moved := p.observe(nil); moved || target != 8 {
		t.Fatalf("empty window moved target to %d", target)
	}
}

func TestPolicyAbsentTargetBucketHolds(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 100})
	if got := feed(p, knee8, schedConfirm); got != 8 {
		t.Fatalf("setup: target = %d, want 8", got)
	}
	// Evaluation windows where the adopted target's bucket saw no flushes
	// at all (deadline flushes landed everything in bucket 32): with no
	// evidence about the target itself, the policy must hold rather than
	// chase the only bucket that happens to be populated.
	absent := curveRows(map[int]float64{32: 90})
	for round := 0; round < 2*schedConfirm+1; round++ {
		if target, moved := p.observe(absent); moved || target != 8 {
			t.Fatalf("round %d: absent-bucket window moved target to %d", round, target)
		}
	}
	// Once the target's bucket reappears and is genuinely bad, the move
	// still happens.
	bad := curveRows(map[int]float64{8: 1000, 32: 90})
	if got := feed(p, bad, schedConfirm); got != 32 {
		t.Fatalf("regime change after absence: target = %d, want 32", got)
	}
}

func TestPolicyIgnoresBucketsOnlyDeadlinesReach(t *testing.T) {
	// Deadline flushes gathered 32 or 40 windows, by how late the flusher
	// woke: bucket 64 holds only the 40-window ones. It looks cheaper per
	// window, but no fill target of 64 is ever reached, so the knee comes
	// from the buckets a target can reach.
	curve := map[int]float64{32: 550, 64: 460}
	if got := feed(&schedPolicy{maxBatch: 256}, curveRows(curve), schedConfirm); got != 64 {
		t.Fatalf("every bucket: target = %d, want 64", got)
	}
	p := &schedPolicy{maxBatch: 256}
	for i := 0; i < schedConfirm; i++ {
		p.observe(reachable(curveRows(curve), 40))
	}
	if p.target != 32 {
		t.Fatalf("reach 40: target = %d, want 32", p.target)
	}
	// A window that deadline flushes never reached past 20 windows holds
	// no evidence about bucket 32: the target holds.
	if target, moved := p.observe(reachable(curveRows(map[int]float64{16: 100, 32: 900}), 20)); moved || target != 32 {
		t.Fatalf("reach 20: target moved to %d", target)
	}
	if rows := reachable(curveRows(curve), 0); len(rows) != 2 {
		t.Fatalf("reach 0 kept %d of 2 rows", len(rows))
	}
}

func TestPolicyResetForgetsLearnedTarget(t *testing.T) {
	p := &schedPolicy{maxBatch: 256}
	knee8 := curveRows(map[int]float64{1: 1000, 2: 500, 4: 250, 8: 100})
	feed(p, knee8, schedConfirm)
	p.reset()
	if p.target != 0 || p.candidate != 0 || p.confirm != 0 {
		t.Fatalf("reset left state %+v", *p)
	}
}
