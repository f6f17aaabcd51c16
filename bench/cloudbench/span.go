package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from this
// program around a call into the layer's public API. Start and End are
// nanoseconds since the recorder's epoch; Parent is the index of the span
// that caused it, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so a traced and an untraced run can share code.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Workload: r.workload})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return time.Duration(d)
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	id := r.begin(name, parent)
	fn()
	if r == nil {
		return time.Since(start)
	}
	return r.end(id)
}

// snapshot returns a copy of the spans; one still open reads as empty.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = out[i].Start
		}
	}
	return out
}

// spanTotals sums, per span name, the durations and the self times. A
// span's self time is its duration minus the durations of the spans that
// name it as parent.
type spanTotals struct {
	total map[string]time.Duration
	self  map[string]time.Duration
}

func totalsOf(spans []span) spanTotals {
	t := spanTotals{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		t.total[s.Name] += time.Duration(d)
		t.self[s.Name] += time.Duration(d - children[i])
	}
	return t
}

// writeSpans writes the span file: one JSON array of
// {name,start,end,parent,workload}, times in nanoseconds since the run's
// epoch.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
