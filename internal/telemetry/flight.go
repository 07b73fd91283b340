package telemetry

import (
	"sync"
	"time"
)

// FlightJob is one completed unit of work in the flight recorder: the
// job-level summary plus the span tree the job produced, keyed by the
// W3C trace ID that correlates it with the originating request. It is
// the queryable record root-cause work needs after the fact — what ran,
// how long each stage took, and how it ended (ok, error, panic with
// stack, deadline-truncated).
type FlightJob struct {
	TraceID   string    `json:"trace_id"`
	RequestID string    `json:"request_id,omitempty"`
	Label     string    `json:"label"`
	Detail    string    `json:"detail,omitempty"`
	Start     time.Time `json:"start"`
	DurMS     float64   `json:"dur_ms"`
	// Status is "ok", "error", "panic" or "interrupted".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// PanicStack is the recovered goroutine stack of a panicked job.
	PanicStack string `json:"panic_stack,omitempty"`
	// Generations is the evolutionary progress the job reached (0 for
	// non-synthesis jobs).
	Generations int `json:"generations,omitempty"`
	// Spans is the job's completed span tree in end order (children
	// before parents), reassemblable over ID/ParentID.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// FlightRecorder keeps the last N completed jobs (with their span
// trees) in a fixed ring buffer — a bounded black box a live process
// can always be asked about, and that gets dumped on SIGTERM drain.
// Span records stream in via OnSpanEnd while jobs run; Complete seals
// one job, claiming the spans that carry its trace ID. All methods are
// cheap under one mutex (append/claim per map key, no scans) and safe
// on a nil recorder.
type FlightRecorder struct {
	mu sync.Mutex
	// ring holds up to cap jobs; next is the slot the following
	// Complete writes, total counts completions ever.
	ring  []FlightJob
	next  int
	total uint64
	// pending accumulates finished spans by trace ID until Complete
	// claims them. Both the number of in-flight traces and the spans
	// kept per trace are bounded; beyond that, spans are dropped and
	// counted.
	pending      map[string][]SpanRecord
	droppedSpans uint64
}

// Bounds on the pending span store: more concurrent traces than
// maxPendingTraces (or more spans per trace than maxSpansPerJob) drop
// the excess rather than grow without limit.
const (
	maxPendingTraces = 1024
	maxSpansPerJob   = 512
)

// NewFlightRecorder builds a recorder holding the last capacity jobs
// (minimum 1; a typical service uses 64-256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{
		ring:    make([]FlightJob, 0, capacity),
		pending: make(map[string][]SpanRecord, 64),
	}
}

// ObserveSpan feeds one finished span into the pending store. Spans
// without a trace ID are not attributable to a job and are ignored.
// Register it on the collector: c.OnSpanEnd(f.ObserveSpan).
func (f *FlightRecorder) ObserveSpan(rec SpanRecord) {
	if f == nil || rec.TraceID == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	spans, ok := f.pending[rec.TraceID]
	if !ok && len(f.pending) >= maxPendingTraces {
		f.droppedSpans++
		return
	}
	if len(spans) >= maxSpansPerJob {
		f.droppedSpans++
		return
	}
	f.pending[rec.TraceID] = append(spans, rec)
}

// Complete seals one job: the pending spans carrying job.TraceID move
// into the job record, and the job takes the oldest slot of the ring.
// Spans the job brought along in job.Spans are kept in front of the
// claimed ones.
func (f *FlightRecorder) Complete(job FlightJob) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if spans, ok := f.pending[job.TraceID]; ok {
		job.Spans = append(job.Spans, spans...)
		delete(f.pending, job.TraceID)
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, job)
	} else {
		f.ring[f.next] = job
	}
	f.next = (f.next + 1) % cap(f.ring)
	f.total++
}

// Forget discards any pending spans for a trace that will never
// complete (a request rejected before its job started), so abandoned
// traces don't squat pending slots.
func (f *FlightRecorder) Forget(traceID string) {
	if f == nil || traceID == "" {
		return
	}
	f.mu.Lock()
	delete(f.pending, traceID)
	f.mu.Unlock()
}

// FlightSnapshot is a point-in-time view of the recorder.
type FlightSnapshot struct {
	// Capacity is the ring size; Recorded counts completions ever (the
	// ring holds min(Capacity, Recorded) of them, newest first).
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	// PendingTraces counts traces with spans awaiting completion;
	// DroppedSpans counts spans discarded at the bounds.
	PendingTraces int         `json:"pending_traces"`
	DroppedSpans  uint64      `json:"dropped_spans"`
	Jobs          []FlightJob `json:"jobs"`
}

// Snapshot copies the recorded jobs, newest first. Safe on a nil
// recorder (zero value).
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FlightSnapshot{
		Capacity:      cap(f.ring),
		Recorded:      f.total,
		PendingTraces: len(f.pending),
		DroppedSpans:  f.droppedSpans,
		Jobs:          make([]FlightJob, 0, len(f.ring)),
	}
	// Walk backwards from the most recently written slot.
	for i := 0; i < len(f.ring); i++ {
		idx := (f.next - 1 - i + len(f.ring)) % len(f.ring)
		s.Jobs = append(s.Jobs, f.ring[idx])
	}
	return s
}

// Find returns the newest recorded job with the given trace ID.
func (f *FlightRecorder) Find(traceID string) (FlightJob, bool) {
	if f == nil {
		return FlightJob{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < len(f.ring); i++ {
		idx := (f.next - 1 - i + len(f.ring)) % len(f.ring)
		if f.ring[idx].TraceID == traceID {
			return f.ring[idx], true
		}
	}
	return FlightJob{}, false
}
