package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into the program; spans inside fl and
// simnet are a later change.
type span struct {
	ID     int
	Parent int // 0 for the root
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	tr     *tracer
}

// tracer keeps spans in memory until the run is over. A nil *tracer
// records nothing, so the untraced run pays for no bookkeeping at all.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	return t.add(name, parent, time.Since(t.origin), 0)
}

// add records a span with explicit times; round spans are laid out from
// Result.Curve after the fact this way.
func (t *tracer) add(name string, parent *span, start, end time.Duration) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Start: start, End: end, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = time.Since(s.tr.origin)
	}
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as Chrome-trace JSON. Every span carries its own
// id, its parent's and the workload name as the identifier the whole run
// shares. Sibling spans that overlap in time (the K party lifetimes) get a
// track each so the viewer does not have to nest them.
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	parties := 0
	for _, s := range t.spans {
		tid := 1
		if s.Name == "party" {
			parties++
			tid = 1 + parties
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
