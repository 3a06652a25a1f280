package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a boundary the benchmark crosses: the
// child itself, the set-up probe, each call into the simulator, the
// collection of its results, each micro-probe, each sweep replicate.
// Spans live in memory and are written once, when the child ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int           // index into tracer.spans, -1 for the root
	lane       int           // Chrome thread id; concurrent replicates get their own
}

// tracer collects spans. A nil *tracer records nothing, which is how the
// timed children run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of spans begun and not yet ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs fn inside a span named name, nested in whatever span is open.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.t0)
}

// add records a span measured elsewhere (a sweep replicate, from the
// sweep's completion callbacks), as a child of the span that is open.
func (t *tracer) add(name string, start, end time.Time, lane int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.t0), end: end.Sub(t.t0), parent: parent, lane: lane})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans in Chrome trace format (chrome://tracing,
// ui.perfetto.dev): complete events, parent and workload in args.
func (t *tracer) write(path string) error {
	// A span's self time is its duration minus the part its children cover.
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{
				"workload": t.workload,
				"parent":   parent,
				"self_us":  float64(self[i].Nanoseconds()) / 1e3,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
