package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// child runs one workload in a fresh process of this same binary, so runs
// share nothing (heap, page cache warmth of the process, peak RSS), and
// parses the result line it prints last.
func child(opt options, workload string, seed uint64) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace01(opt.trace)), "-out", opt.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct {
		return line, fmt.Errorf("%s seed %d: wrong outputs among the %d of %d windows that failed", workload, seed, line.Failed, line.Attempted)
	}
	if line.Failed > 0 {
		fmt.Printf("%s seed %d: the tier shed %d of %d windows\n", workload, seed, line.Failed, line.Attempted)
	}
	return line, nil
}

// runAll runs every workload once and prints one table.
func runAll(opt options) error {
	names := metricNames(opt.trace)
	rows := map[string]map[string]value{}
	for _, wl := range workloads {
		line, err := child(opt, wl.Name, opt.seed)
		if err != nil {
			return err
		}
		rows[wl.Name] = line.Metrics
	}
	fmt.Printf("%-40s %-6s", "metric", "unit")
	for _, wl := range workloads {
		fmt.Printf(" %14s", wl.Name)
	}
	fmt.Println()
	for _, name := range names {
		fmt.Printf("%-40s %-6s", name, rows[workloads[0].Name][name].Unit)
		for _, wl := range workloads {
			fmt.Printf(" %14.6g", rows[wl.Name][name].Value)
		}
		fmt.Println()
	}
	return nil
}

func metricNames(trace bool) []string {
	var names []string
	if trace {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	return names
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// wallMetrics reads, from the full report the child just wrote, the
// clock-bound metrics as they come out without the reference clock.
func wallMetrics(opt options, workload string, seed uint64) (map[string]float64, error) {
	blob, err := os.ReadFile(filepath.Join(opt.out, reportName(workload, seed, opt.trace)))
	if err != nil {
		return nil, err
	}
	var rep struct {
		Raw map[string]float64 `json:"end_to_end_wall"`
	}
	return rep.Raw, json.Unmarshal(blob, &rep)
}

// runAA is the instrument's self-test: every workload opt.aa times in each
// of two sets A and B of this one binary, interleaved A/B/A/B with seed i
// for the i-th pair. For each metric × workload it prints each set's median
// and quartiles, the spread (IQR / median, the larger of the two sets) and
// the disagreement of the medians in the worse direction, whichever set is
// worse, against the bound. Any disagreement or spread above its bound
// fails: a gate that disagrees with itself cannot judge a change. A second
// table shows the same runs' clock-bound metrics in wall seconds, for what
// the reference clock (speed.go) is worth.
func runAA(opt options) error {
	type key struct{ workload, metric string }
	sets, wall := [2]map[key][]float64{{}, {}}, [2]map[key][]float64{{}, {}}
	started := time.Now()
	for _, wl := range workloads {
		for i := 0; i < opt.aa; i++ {
			for s := range sets {
				line, err := child(opt, wl.Name, uint64(i+1))
				if err != nil {
					return err
				}
				for name, v := range line.Metrics {
					k := key{wl.Name, name}
					sets[s][k] = append(sets[s][k], v.Value)
				}
				raw, err := wallMetrics(opt, wl.Name, uint64(i+1))
				if err != nil {
					return err
				}
				for name, v := range raw {
					k := key{wl.Name, name}
					wall[s][k] = append(wall[s][k], v)
				}
			}
		}
	}
	fmt.Printf("A/A of %d pairs per workload, seeds 1..%d, %.0f s measured per run, started %s, took %s\n\n",
		opt.aa, opt.aa, opt.seconds, started.UTC().Format(time.RFC3339), time.Since(started).Round(time.Second))
	failed := 0
	table := func(sets [2]map[key][]float64, gate bool) {
		fmt.Printf("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread | disagreement | bound |\n|---|---|---|---|---|---|---|\n")
		for _, wl := range workloads {
			for _, m := range endToEnd {
				a, b := sets[0][key{wl.Name, m.Name}], sets[1][key{wl.Name, m.Name}]
				if len(a) == 0 {
					continue
				}
				ma, mb := median(a), median(b)
				a1, a3 := quartiles(a)
				b1, b3 := quartiles(b)
				spread := 0.0
				if ma != 0 && mb != 0 {
					spread = max((a3-a1)/ma, (b3-b1)/mb)
				}
				dis := max(worsening(m.Better, ma, mb), worsening(m.Better, mb, ma))
				mark := func(v float64) string {
					if gate && v > m.Bound {
						failed++
						return " FAIL"
					}
					return ""
				}
				// setup_s is gated on its medians alone, as the driver does.
				spreadMark := ""
				if m.Name != "setup_s" {
					spreadMark = mark(spread)
				}
				fmt.Printf("| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.4f%s | %.4f%s | %.3f |\n",
					wl.Name, m.Name, ma, a1, a3, mb, b1, b3, spread, spreadMark, dis, mark(dis), m.Bound)
			}
		}
	}
	table(sets, true)
	fmt.Printf("\nThe same runs without the reference clock (wall seconds; not gated):\n\n")
	table(wall, false)
	if failed > 0 {
		return fmt.Errorf("%d spreads or disagreements are beyond their bound", failed)
	}
	return nil
}
