package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Span is one timed call, made by the benchmark, into a layer's public
// function. Spans of one request (frame ordinal, request number or spec
// index) share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Calls  int    `json:"calls"`    // per-event calls the span covers
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Shadow marks a child timed on a shadow replay of the inputs its
	// parent handled, after the parent returned. It stands in for the
	// part of the parent that calls this layer internally: the replayed
	// layers are deterministic, so the shadow does the same work.
	Shadow bool `json:"shadow,omitempty"`
}

// tracer keeps spans in memory. A tracer that is off records nothing and
// costs one branch per call, which is what the overhead comparison
// measures against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (-1 when the tracer is off).
func (t *tracer) begin(name string, parent int, req int64, calls int) int {
	return t.open(name, parent, req, calls, false)
}

// shadow opens a shadow child of parent.
func (t *tracer) shadow(name string, parent int, req int64, calls int) int {
	return t.open(name, parent, req, calls, true)
}

func (t *tracer) open(name string, parent int, req int64, calls int, shadow bool) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Parent: parent, Name: name, Req: req, Calls: calls,
		Start: int64(time.Since(t.epoch)), Shadow: shadow,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	spans int
	calls int
	dur   float64 // ns
	self  float64 // ns: duration minus the children's durations
}

// perSpan is the mean duration of one span.
func (l *layerTotal) perSpan() float64 { return l.dur / float64(max(l.spans, 1)) }

// perCall is the mean duration of one covered call.
func (l *layerTotal) perCall() float64 { return l.dur / float64(max(l.calls, 1)) }

// totals aggregates spans by name. A span's self time is its duration
// minus the durations of its children, shadow children included.
func totals(spans []Span) map[string]*layerTotal {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End - s.Start)
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTotal{}
			out[s.Name] = l
		}
		d := float64(s.End - s.Start)
		l.spans++
		l.calls += s.Calls
		l.dur += d
		l.self += d - child[i]
	}
	return out
}

// total returns the aggregate for name, or an empty one.
func total(t map[string]*layerTotal, name string) *layerTotal {
	if l := t[name]; l != nil {
		return l
	}
	return &layerTotal{}
}

// checkNesting verifies the span tree: parents precede their children,
// every span ends after it starts, and a child that is not a shadow lies
// inside its parent's interval.
func checkNesting(spans []Span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d opened after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if !s.Shadow && (s.Start < p.Start || s.End > p.End) {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// tracedReplays runs replay pairs times with span recording off and on
// in turn, each from a collected heap, and reports the tracing overhead:
// how much longer the median traced replay took than the median untraced
// one. It returns the tracer of the last traced replay.
func tracedReplays(rep *report, pairs int, replay func(t *tracer) error) (*tracer, error) {
	var off, on []float64
	var last *tracer
	for i := 0; i < pairs; i++ {
		for _, traced := range []bool{false, true} {
			t := newTracer(traced)
			runtime.GC()
			start := time.Now()
			if err := replay(t); err != nil {
				return nil, err
			}
			d := time.Since(start).Seconds()
			if traced {
				on, last = append(on, d), t
			} else {
				off = append(off, d)
			}
		}
	}
	rep.spans = last.spans
	rep.set("trace.overhead_share", median(on)/median(off)-1, 2*pairs)
	return last, nil
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
