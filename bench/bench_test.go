package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestBenchmarkJSON pins the root BENCHMARK.json to spec.go and to the
// driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a legal metric name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is not a legal unit", n, u)
		}
		if u != "" && better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	setup := false
	for _, w := range got.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want ≤ 200", w.Name, len(w.Why))
		}
	}
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestWorkloads runs every workload for 3 rounds of 0.2 s with tracing on
// (a traced run measures both metric sets) and asserts that every metric
// BENCHMARK.json names comes out once, with its unit, finite, and that the
// hard correctness checks pass.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			rep, err := runWorkload(runConfig{workload: wl.Name, seed: 7, rounds: 3, roundDur: 200 * time.Millisecond,
				warmup: 300 * time.Millisecond, setups: 1, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || rep.Scored != rep.Attempted {
				t.Fatalf("correct=%v attempted=%d scored=%d failed=%d", rep.Correct, rep.Attempted, rep.Scored, rep.Failed)
			}
			want := map[bool]map[string]string{false: {}, true: {}}
			for _, m := range endToEnd {
				want[false][m.Name] = m.Unit
			}
			for _, m := range perLayer {
				want[true][m.Name] = m.Unit
			}
			for perLayerSet, units := range want {
				line, err := rep.result(perLayerSet)
				if err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(units) {
					t.Errorf("%d metrics emitted, want %d", len(line.Metrics), len(units))
				}
				for name, u := range units {
					v, ok := line.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if v.Unit != u || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", name, v.Value, v.Unit, u)
					}
				}
			}
			for _, m := range endToEnd {
				if rep.E2E[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.E2E[m.Name])
				}
			}
			if rep.Env.NProc < 1 || rep.Env.GoVersion == "" || rep.Env.GemmKernel == "" || rep.Env.QGemmKernel == "" ||
				rep.Env.Seed != 7 || rep.Env.Rounds != 3 || rep.Env.SpeedFactor <= 0 {
				t.Errorf("environment incomplete: %+v", rep.Env)
			}
			if _, err := os.Stat(rep.tracePath); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
