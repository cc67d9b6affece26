package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed interval recorded by the harness around a call into a
// layer. Names are "<layer>.<what>"; the layer is one of the repo's modules,
// or "bench" for the harness's own work.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span index, -1 for a root
	Op     int    `json:"op"`     // op index in the script, -1 outside ops
	Label  string `json:"label,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// rootSpan is the index of a traced round's root span: traced() opens it
// before anything else on a new tracer.
const rootSpan = 0

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// label attaches a description (the op's pattern, say) to a span.
func (t *tracer) label(id int, s string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Label = s
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's duration minus the part of it covered by its
// children.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = time.Duration(s.End - s.Start)
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations returns the sorted durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// layerSelf sums self time per layer over the spans below root.
func (t *tracer) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		if t.spans[i].Parent >= 0 {
			out[layerOf(t.spans[i].Name)] += d
		}
	}
	return out
}

// write stores the round's spans, and the set-up's (which have a clock and
// span indices of their own), as JSON at path.
func (t *tracer) write(path string, setup *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
		Setup []span `json:"setup_spans"`
	}{t.spans, setup.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
