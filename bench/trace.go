package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Driver-side spans: recorded from the benchmark's own files around the
// calls into each layer, kept in a preallocated ring and written as
// Chrome trace-event JSON when the run ends. Spans inside the program
// are the engine recorder's business (and ROADMAP item 5's).

// spanID names a span; 0 is "no parent".
type spanID uint32

type span struct {
	name       string
	id, parent spanID
	// track is the Chrome tid: 0 for the run's own phases, 1+client for
	// sampled ops.
	track      uint32
	start, end time.Time
}

// tracer is the span ring. A nil *tracer records nothing, which is how
// the untraced run pays nothing.
type tracer struct {
	mu    sync.Mutex
	ring  []span
	next  uint64
	nextI spanID
}

const traceRingSpans = 1 << 16

func newTracer() *tracer { return &tracer{ring: make([]span, traceRingSpans)} }

// newID reserves an ID so children can name their parent before it ends.
func (t *tracer) newID() spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextI++
	return t.nextI
}

// add records a finished span under a reserved ID (0: assign one).
func (t *tracer) add(id spanID, name string, parent spanID, track uint32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.nextI++
		id = t.nextI
	}
	t.ring[t.next%uint64(len(t.ring))] = span{name: name, id: id, parent: parent, track: track, start: start, end: end}
	t.next++
	t.mu.Unlock()
}

// phase runs fn as a span on the main track.
func (t *tracer) phase(name string, parent spanID, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(0, name, parent, 0, start, time.Now())
	return err
}

// spans returns the retained spans, oldest first.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.next <= n {
		return append([]span(nil), t.ring[:t.next]...)
	}
	out := make([]span, 0, n)
	for i := t.next - n; i < t.next; i++ {
		out = append(out, t.ring[i%n])
	}
	return out
}

// chromeEvent is one "X" (complete) trace event; timestamps are
// microseconds. Perfetto and chrome://tracing nest events of one tid by
// time containment; args carry the causal link explicitly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint32            `json:"tid"`
	Args map[string]uint32 `json:"args"`
}

// writeChrome writes the retained spans to path as Chrome trace-event
// JSON, timestamps relative to the earliest span.
func (t *tracer) writeChrome(path string) error {
	spans := t.spans()
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: 1, Tid: s.track,
			Args: map[string]uint32{"span": uint32(s.id), "parent": uint32(s.parent)},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
