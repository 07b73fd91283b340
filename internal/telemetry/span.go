package telemetry

import "time"

// SpanRecord is one finished span: a named wall-clock interval with an
// optional parent, timed relative to the collector's creation. ID and
// ParentID identify the span instance: names repeat (every job of a
// scheduled sweep opens a "synthesize" span), IDs do not, so a span
// tree built over IDs stays a tree under concurrency.
type SpanRecord struct {
	ID       int64   `json:"id,omitempty"`
	ParentID int64   `json:"parent_id,omitempty"`
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	StartMS  float64 `json:"start_ms"`
	DurMS    float64 `json:"dur_ms"`
	// Status is empty for a span that ended normally; otherwise a short
	// outcome marker ("error", "panic", "interrupted").
	Status string `json:"status,omitempty"`
	// TraceID, when set, is the W3C trace the span belongs to: children
	// inherit it, so a whole request's span tree shares one trace ID
	// and survives reassembly across process boundaries.
	TraceID string `json:"trace_id,omitempty"`
}

// Span is a live timed interval. Obtain one with Collector.StartSpan or
// Span.Child and finish it with End. A nil span (from a nil collector)
// is valid and does nothing.
type Span struct {
	c        *Collector
	id       int64
	parentID int64
	name     string
	parent   string
	status   string
	trace    string
	start    time.Time
}

// StartSpan opens a root span. Safe on a nil collector (returns a nil,
// no-op span).
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	return &Span{c: c, id: c.spanSeq.Add(1), name: name, start: time.Now()}
}

// Child opens a sub-span whose record names this span as its parent.
// Safe on a nil span. Safe for concurrent calls on the same parent —
// scheduled jobs branch their spans off one root.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		c:        s.c,
		id:       s.c.spanSeq.Add(1),
		parentID: s.id,
		name:     name,
		parent:   s.name,
		trace:    s.trace,
		start:    time.Now(),
	}
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetStatus marks the span's outcome ("error", "panic", ...);
// the value lands in the record at End. Safe on a nil span. Must be
// called from the goroutine that owns the span (like End).
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.status = status
}

// SetTrace associates the span (and every child opened afterwards)
// with a W3C trace ID. Safe on a nil span. Must be called before
// children are opened and from the goroutine that owns the span.
func (s *Span) SetTrace(traceID string) {
	if s == nil {
		return
	}
	s.trace = traceID
}

// Trace returns the span's trace ID ("" for a nil or untraced span).
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// ID returns the span's collector-unique id (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End finishes the span, records it on the collector, streams it to the
// JSONL output if one is set, and returns the measured duration. Safe
// on a nil span (returns 0).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	rec := SpanRecord{
		ID:       s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Parent:   s.parent,
		StartMS:  s.c.sinceMS(s.start),
		DurMS:    float64(d) / float64(time.Millisecond),
		Status:   s.status,
		TraceID:  s.trace,
	}
	s.c.mu.Lock()
	s.c.spans = append(makeRoom(s.c.spans, s.c.spanLimit), rec)
	e := s.c.emitter
	obs := s.c.spanObservers
	s.c.mu.Unlock()
	e.emit(spanEvent{Type: "span", SpanRecord: rec})
	for _, fn := range obs {
		fn(rec)
	}
	return d
}
