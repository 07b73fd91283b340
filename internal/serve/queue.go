package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"time"

	"rsnrobust/internal/moea"
	"rsnrobust/internal/telemetry"
)

// jobQueue is the bounded admission queue in front of the synthesis
// workers. Admission capacity is workers+depth: a request that cannot
// take an admission token immediately is rejected (the handler turns
// that into 429 + Retry-After), so the wait line never grows beyond
// depth. Admitted requests then contend for one of the workers run
// slots; the wait is context-aware, so a client hanging up (or the
// drain abort) releases the spot.
type jobQueue struct {
	admit chan struct{}
	slots chan struct{}

	workers  int
	tel      *telemetry.Collector
	waiting  *telemetry.Gauge
	running  *telemetry.Gauge
	rejected *telemetry.Counter
	jobMS    *telemetry.Histogram
}

func newJobQueue(workers, depth int, tel *telemetry.Collector) *jobQueue {
	return &jobQueue{
		admit:    make(chan struct{}, workers+depth),
		slots:    make(chan struct{}, workers),
		workers:  workers,
		tel:      tel,
		waiting:  tel.Gauge("serve.queue.waiting"),
		running:  tel.Gauge("serve.queue.running"),
		rejected: tel.Counter("serve.queue.rejected"),
		jobMS:    tel.Histogram("serve.job_ms"),
	}
}

// enter claims an admission token without blocking; false means the
// queue is full and the request must be bounced with 429.
func (q *jobQueue) enter() bool {
	select {
	case q.admit <- struct{}{}:
		q.waiting.Set(float64(len(q.admit) - len(q.slots)))
		return true
	default:
		q.rejected.Inc()
		return false
	}
}

// leave returns the admission token.
func (q *jobQueue) leave() {
	<-q.admit
	q.waiting.Set(float64(max(0, len(q.admit)-len(q.slots))))
}

// acquire waits for a run slot, giving up when ctx dies.
func (q *jobQueue) acquire(ctx context.Context) error {
	select {
	case q.slots <- struct{}{}:
		q.running.Set(float64(len(q.slots)))
		q.waiting.Set(float64(max(0, len(q.admit)-len(q.slots))))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the run slot.
func (q *jobQueue) release() {
	<-q.slots
	q.running.Set(float64(len(q.slots)))
}

// retryAfter estimates how long a bounced client should back off: the
// mean observed job time scaled by the line ahead of it, clamped to
// [1s, 60s]. With no history yet it answers 1s.
func (q *jobQueue) retryAfter() time.Duration {
	mean := q.jobMS.Stat().Mean // ms; 0 with no samples
	line := float64(len(q.admit)+1) / float64(q.workers)
	sec := math.Ceil(mean * line / 1000)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return time.Duration(sec) * time.Second
}

// retryAfterSeconds is retryAfter as the whole-second value the
// Retry-After header carries. Sub-second estimates round UP and the
// result is clamped to ≥1 — a truncating division here once emitted
// "Retry-After: 0" whenever the mean job time was sub-second, which
// tells well-behaved clients to hammer the queue with zero delay.
func (q *jobQueue) retryAfterSeconds() int {
	sec := int((q.retryAfter() + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// jobResult is a job's response; partial reports a run its deadline or
// a disconnect cut short.
type jobResult interface{ partial() bool }

func (*AnalyzeResponse) partial() bool  { return false }
func (r *HardenResponse) partial() bool { return r.Interrupted }

// runJob runs fn as the request's one job and keeps its record in the
// flight recorder: the job enters before it runs, with the route,
// network and cache key of job and the request's trace and request IDs;
// fn reports the generations it completes through progress; and the job
// ends with its status, error, panic stack and duration, which runJob
// returns too. fn runs as a single-job moea.RunSet run, inheriting the
// scheduler's panic isolation (a panicking job surfaces as a
// *moea.PanicError, not a crashed process), its per-job deadline (a job
// that outlives it drains cooperatively and hands back a partial
// result), and its per-job telemetry span (the job's pipeline spans
// parent under "job:<route>"). The job time lands in serve.job_ms,
// feeding the Retry-After estimate.
func runJob[T jobResult](s *Server, r *http.Request, job telemetry.FlightJob, deadline time.Duration,
	fn func(ctx context.Context, sp *telemetry.Span, progress func(generations int)) (T, error)) (T, time.Duration, error) {
	ctx, cancel := s.jobContext(r.Context())
	defer cancel()
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		job.TraceID = tc.TraceID
	}
	job.RequestID, _ = telemetry.RequestIDFrom(ctx)
	job.Started = time.Now()
	id := s.flight.Begin(job)
	rs := moea.NewRunSet[T]()
	rs.Add(job.Route, func(ctx context.Context, sp *telemetry.Span) (T, error) {
		return fn(ctx, sp, func(n int) { s.flight.Progress(id, n) })
	})
	var out T
	var outErr error
	err := rs.Run(ctx, moea.RunOptions{Workers: 1, Telemetry: s.tel, JobDeadline: deadline},
		func(_ int, _ string, v T, err error) { out, outErr = v, err })
	dur := time.Since(job.Started)
	s.queue.jobMS.Observe(float64(dur) / float64(time.Millisecond))
	if outErr == nil {
		outErr = err
	}
	status, msg, stack := "ok", "", ""
	var pe *moea.PanicError
	switch {
	case errors.As(outErr, &pe):
		status, msg, stack = "panic", outErr.Error(), string(pe.Stack)
	case outErr != nil:
		status, msg = "error", outErr.Error()
	case out.partial():
		status = "interrupted"
	}
	s.flight.End(id, dur, status, msg, stack)
	return out, dur, outErr
}
