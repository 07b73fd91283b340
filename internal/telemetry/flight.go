package telemetry

import (
	"slices"
	"sync"
	"time"
)

// FlightJob is one unit of request-driven compute: its identity (trace
// and request IDs, so it joins with logs and spans), what it is, how it
// is going or how it ended (ok, error, panic with stack, interrupted),
// and the span tree it produced. One record serves both views of a
// service's jobs: the job list without spans, the flight recorder with
// them.
type FlightJob struct {
	ID        int64  `json:"id"`
	Route     string `json:"route"`
	Network   string `json:"network,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// CacheKey is the content address of the job's result, for routes
	// whose results are content-addressed; empty for the others.
	CacheKey string    `json:"cache_key,omitempty"`
	Started  time.Time `json:"started"`
	// State is "running" or "done".
	State string `json:"state"`
	// Status is set once done: "ok", "error", "panic" or "interrupted".
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// PanicStack is the recovered goroutine stack of a panicked job.
	PanicStack string  `json:"panic_stack,omitempty"`
	DurMS      float64 `json:"dur_ms,omitempty"`
	// Generations counts the evolutionary generations the job has
	// completed (live while it runs; 0 for jobs that do not evolve).
	Generations int `json:"generations"`
	// Spans is the job's finished span tree in end order (children
	// before parents), reassemblable over ID/ParentID.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// FlightRecorder is a service's job store: the running jobs, and the
// last N finished ones in a fixed ring buffer — a bounded black box a
// live process can always be asked about, and that gets dumped on
// SIGTERM drain. A job enters with Begin, reports progress, and moves
// into the ring at End. Span records stream in through ObserveSpan
// while jobs run, each attaching to the running job that has its trace
// ID. All methods are cheap under one mutex.
type FlightRecorder struct {
	mu  sync.Mutex
	seq int64
	// active holds the running jobs in Begin order.
	active []FlightJob
	// ring holds up to cap finished jobs; next is the slot the following
	// End writes, total counts finished jobs ever.
	ring  []FlightJob
	next  int
	total uint64
	// droppedSpans counts spans beyond maxSpansPerJob.
	droppedSpans uint64
}

// maxSpansPerJob bounds the spans one job keeps; beyond it, spans are
// dropped and counted.
const maxSpansPerJob = 512

// NewFlightRecorder builds a recorder holding the last capacity
// finished jobs (minimum 1; a typical service uses 64-256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{ring: make([]FlightJob, 0, max(capacity, 1))}
}

// Begin registers a starting job and returns its ID.
func (f *FlightRecorder) Begin(job FlightJob) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	job.ID = f.seq
	job.State = "running"
	f.active = append(f.active, job)
	return job.ID
}

// running returns the index in active of the running job with the
// given ID, -1 when there is none. Callers hold f.mu.
func (f *FlightRecorder) running(id int64) int {
	for i := range f.active {
		if f.active[i].ID == id {
			return i
		}
	}
	return -1
}

// Progress records the number of generations a running job has
// completed.
func (f *FlightRecorder) Progress(id int64, generations int) {
	f.mu.Lock()
	if i := f.running(id); i >= 0 {
		f.active[i].Generations = generations
	}
	f.mu.Unlock()
}

// End seals a running job with its outcome and moves it into the
// oldest slot of the ring.
func (f *FlightRecorder) End(id int64, dur time.Duration, status, errMsg, panicStack string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.running(id)
	if i < 0 {
		return
	}
	done := f.active[i]
	f.active = slices.Delete(f.active, i, i+1)
	done.State = "done"
	done.Status, done.Error, done.PanicStack = status, errMsg, panicStack
	done.DurMS = float64(dur) / float64(time.Millisecond)
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, done)
	} else {
		f.ring[f.next] = done
	}
	f.next = (f.next + 1) % cap(f.ring)
	f.total++
}

// ObserveSpan attaches one finished span to the newest running job with
// its trace ID. Spans of no running job are not a job's and are
// ignored. Register it on the collector: c.OnSpanEnd(f.ObserveSpan).
func (f *FlightRecorder) ObserveSpan(rec SpanRecord) {
	if rec.TraceID == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.active) - 1; i >= 0; i-- {
		job := &f.active[i]
		if job.TraceID != rec.TraceID {
			continue
		}
		if len(job.Spans) >= maxSpansPerJob {
			f.droppedSpans++
		} else {
			job.Spans = append(job.Spans, rec)
		}
		return
	}
}

// finished returns the ring's jobs, newest first. Callers hold f.mu.
func (f *FlightRecorder) finished() []FlightJob {
	jobs := make([]FlightJob, 0, len(f.ring))
	for i := range f.ring {
		jobs = append(jobs, f.ring[(f.next-1-i+len(f.ring))%len(f.ring)])
	}
	return jobs
}

// FlightSnapshot is a point-in-time view of the finished jobs with
// their span trees.
type FlightSnapshot struct {
	// Capacity is the ring size; Recorded counts finished jobs ever (the
	// ring holds min(Capacity, Recorded) of them, newest first).
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	// DroppedSpans counts spans discarded at the per-job bound.
	DroppedSpans uint64      `json:"dropped_spans"`
	Jobs         []FlightJob `json:"jobs"`
}

// Snapshot copies the finished jobs, newest first, span trees included.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightSnapshot{
		Capacity:     cap(f.ring),
		Recorded:     f.total,
		DroppedSpans: f.droppedSpans,
		Jobs:         f.finished(),
	}
}

// JobList is the job view of the recorder, without span trees.
type JobList struct {
	// Active jobs, oldest first. Recent finished jobs, newest first.
	Active []FlightJob `json:"active"`
	Recent []FlightJob `json:"recent"`
}

// Jobs copies the running and the finished jobs without their spans.
func (f *FlightRecorder) Jobs() JobList {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := JobList{Active: append(make([]FlightJob, 0, len(f.active)), f.active...), Recent: f.finished()}
	for _, jobs := range [][]FlightJob{l.Active, l.Recent} {
		for i := range jobs {
			jobs[i].Spans = nil
		}
	}
	return l
}

// Find returns the newest finished job with the given trace ID.
func (f *FlightRecorder) Find(traceID string) (FlightJob, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, job := range f.finished() {
		if job.TraceID == traceID {
			return job, true
		}
	}
	return FlightJob{}, false
}
