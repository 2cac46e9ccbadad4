package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// procStart anchors setup_s and span timestamps at process start.
var procStart = time.Now()

// span is one timed call the benchmark made into a layer's public surface.
// Spans live in memory and are written out once, at exit.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`     // round, operation or frame number
	Parent string `json:"parent"` // "name#id" of the span that caused it, "" for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans for one goroutine; goroutines never share one, so
// recording takes no lock. A nil tracer records nothing.
type tracer struct {
	spans  []span
	counts map[string]float64 // counts taken at the same boundaries as the spans
}

// count records a count under name, replacing an earlier one.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	if t.counts == nil {
		t.counts = map[string]float64{}
	}
	t.counts[name] = v
}

func (t *tracer) add(name string, id int64, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name, id, parent, start.Sub(procStart).Nanoseconds(), end.Sub(procStart).Nanoseconds()})
}

// covered is the total duration of the tracer's spans with the given name.
func (t *tracer) covered(name string) time.Duration {
	if t == nil {
		return 0
	}
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// medianMs is the median duration, in ms, of the spans with the given name.
func (t *tracer) medianMs(name string) float64 {
	if t == nil {
		return 0
	}
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}

// writeTrace dumps the spans of every tracer to <dir>/trace-<workload>.json
// and returns that path.
func writeTrace(dir, workload string, env environment, tracers ...*tracer) (string, error) {
	var all []span
	counts := map[string]float64{}
	for _, t := range tracers {
		if t != nil {
			all = append(all, t.spans...)
			for name, v := range t.counts {
				counts[name] = v
			}
		}
	}
	blob, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		Environment environment        `json:"environment"`
		Counts      map[string]float64 `json:"counts"`
		Spans       []span             `json:"spans"`
	}{workload, env, counts, all})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, blob, 0o644)
}
