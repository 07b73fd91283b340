package moea

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rsnrobust/internal/telemetry"
)

// RunSet is a run-level scheduler: it executes a set of independent
// jobs — synthesis runs over networks × methods × seeds, typically —
// across a bounded worker pool and emits the results in submission
// order, streaming each as soon as it and all its predecessors have
// finished. Jobs must be self-contained (own RNG seed, own outputs), so
// the emitted results are bit-identical at every worker count; the pool
// size only decides wall-clock time and interleaving of the work.
//
// Each job receives a per-job context (carrying the run's cancellation
// and the optional per-job deadline) and a per-job telemetry span (a
// child of the run's "runset" root, nil when telemetry is off) to
// parent its own spans on, attributing everything the job does to that
// job in the trace.
//
// The scheduler is also a failure domain: a panicking job is recovered
// into a *PanicError (with the job label and index as root-cause
// evidence, counted on moea.panics and marked on the job's span) and
// reported through the normal emit path while its siblings keep
// running; a cancelled run stops claiming new jobs, drains the running
// ones gracefully, and emits the never-started jobs with an error
// wrapping ErrInterrupted — emit still fires exactly once per job, in
// submission order.
type RunSet[T any] struct {
	jobs []runJob[T]
}

type runJob[T any] struct {
	label string
	fn    func(ctx context.Context, sp *telemetry.Span) (T, error)
}

// NewRunSet returns an empty scheduler.
func NewRunSet[T any]() *RunSet[T] { return &RunSet[T]{} }

// Add appends one job. The label names the job's telemetry span
// ("job:<label>") and is handed back on emission. The job should honor
// ctx — cancellation and the per-job deadline arrive through it.
func (rs *RunSet[T]) Add(label string, fn func(ctx context.Context, sp *telemetry.Span) (T, error)) {
	rs.jobs = append(rs.jobs, runJob[T]{label: label, fn: fn})
}

// Len returns the number of jobs added.
func (rs *RunSet[T]) Len() int { return len(rs.jobs) }

// RunOptions configures one RunSet execution.
type RunOptions struct {
	// Workers is the pool size: <= 0 selects GOMAXPROCS, 1 degrades to a
	// plain serial loop on the calling goroutine.
	Workers int
	// Telemetry, if non-nil, receives the scheduler's instruments and
	// the job spans.
	Telemetry *telemetry.Collector
	// JobDeadline, if positive, bounds each job: its context expires
	// that long after the job starts and the job is expected to drain
	// gracefully (return a partial result or its context error).
	JobDeadline time.Duration
}

// jobOutcome is one finished job, tagged with its submission index.
type jobOutcome[T any] struct {
	idx int
	val T
	err error
}

// Run executes the jobs on min(opts.Workers, len(jobs)) goroutines and
// calls emit exactly once per job, in submission order, on the calling
// goroutine — so emit may write shared output without locking. Every
// job runs regardless of other jobs' errors; a nil ctx never cancels.
// Run returns the error of the earliest-submitted failed (or skipped)
// job, if any.
func (rs *RunSet[T]) Run(ctx context.Context, opts RunOptions, emit func(idx int, label string, val T, err error)) error {
	n := len(rs.jobs)
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	tel := opts.Telemetry
	root := tel.StartSpan("runset")
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		// The run belongs to a traced request: stamp the trace ID on the
		// root so every job span (and their children) inherits it and the
		// whole tree reassembles under the request's trace.
		root.SetTrace(tc.TraceID)
	}
	defer root.End()
	tel.Gauge("runset.jobs").Set(float64(n))
	tel.Gauge("runset.workers").Set(float64(workers))
	jobMS := tel.Histogram("runset.job_ms")
	panics := tel.Counter("moea.panics")

	runOne := func(i int) (v T, err error) {
		j := rs.jobs[i]
		sp := root.Child("job:" + j.label)
		jctx := ctx
		if opts.JobDeadline > 0 {
			var cancel context.CancelFunc
			jctx, cancel = context.WithTimeout(ctx, opts.JobDeadline)
			defer cancel()
		}
		t0 := time.Now()
		defer func() {
			if r := recover(); r != nil {
				panics.Inc()
				err = &PanicError{Op: "job", Label: j.label, Index: i, Value: r, Stack: debug.Stack()}
			}
			jobMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			var pe *PanicError
			switch {
			case errors.As(err, &pe):
				sp.SetStatus("panic")
			case err != nil:
				sp.SetStatus("error")
			}
			sp.End()
		}()
		return j.fn(jctx, sp)
	}

	// skipErr reports a job the cancelled run never started. Both the
	// interruption sentinel and the context error are errors.Is-able.
	skipErr := func(label string) error {
		return fmt.Errorf("moea: job %q not started: %w (%w)", label, ErrInterrupted, context.Cause(ctx))
	}

	var firstErr error
	account := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	if workers == 1 {
		for i := range rs.jobs {
			var v T
			var err error
			if ctx.Err() != nil {
				err = skipErr(rs.jobs[i].label)
			} else {
				v, err = runOne(i)
			}
			account(err)
			emit(i, rs.jobs[i].label, v, err)
		}
		return firstErr
	}

	// Workers pull job indices from an atomic cursor (stopping at
	// cancellation, so the claimed set is always a prefix); the collector
	// below reorders completions into submission order, emitting each
	// prefix as soon as it is complete.
	var cursor atomic.Int64
	results := make(chan jobOutcome[T], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := runOne(i)
				results <- jobOutcome[T]{idx: i, val: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	done := make([]*jobOutcome[T], n)
	emitted := 0
	for o := range results {
		o := o
		done[o.idx] = &o
		for emitted < n && done[emitted] != nil {
			d := done[emitted]
			account(d.err)
			emit(emitted, rs.jobs[emitted].label, d.val, d.err)
			done[emitted] = nil
			emitted++
		}
	}
	// The pool has drained; anything left was never claimed.
	for ; emitted < n; emitted++ {
		var zero T
		err := skipErr(rs.jobs[emitted].label)
		account(err)
		emit(emitted, rs.jobs[emitted].label, zero, err)
	}
	return firstErr
}
