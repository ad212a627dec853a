package main

import (
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one task or job share a Trace id; Parent is the ID of the
// enclosing span (0 for a root). Times are microseconds since the tracer
// started.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Trace  string           `json:"trace"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_us"`
	End    float64          `json:"end_us"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced and traced replays run the same code and their
// difference is the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// end closes span id, attaching the work counts observed at the call.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// add records a span whose interval was observed elsewhere — the serve
// layer's own timestamps on a job record.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: t.us(start), End: t.us(end)})
}

// spanSummary aggregates every span of one name: how often it ran, its total
// and self time (self = duration minus the part covered by child spans), and
// the sum of each count recorded on it.
type spanSummary struct {
	Name    string           `json:"name"`
	Calls   int              `json:"calls"`
	TotalUs float64          `json:"total_us"`
	SelfUs  float64          `json:"self_us"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// summary aggregates the recorded spans by name, in first-seen order.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	index := map[string]int{}
	var out []spanSummary
	for _, s := range t.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		a := &out[i]
		a.Calls++
		a.TotalUs += s.dur()
		a.SelfUs += s.dur() - child[s.ID]
		for k, v := range s.Counts {
			if a.Counts == nil {
				a.Counts = map[string]int64{}
			}
			a.Counts[k] += v
		}
	}
	return out
}

// named returns the summary of one span name (zero if it never ran).
func named(sums []spanSummary, name string) spanSummary {
	i := slices.IndexFunc(sums, func(s spanSummary) bool { return s.Name == name })
	if i < 0 {
		return spanSummary{Name: name}
	}
	return sums[i]
}

// durations returns the durations (ms) of every span of one name whose
// trace satisfies keep.
func (t *tracer) durations(name string, keep func(trace string) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Trace)) {
			out = append(out, s.dur()/1000)
		}
	}
	return out
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}
