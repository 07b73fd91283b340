package moea

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rsnrobust/internal/telemetry"
)

// minParallelChunk is the smallest per-worker slice of a batch worth a
// goroutine: below it the spawn/synchronization overhead exceeds the
// evaluation work of typical problems, so smaller batches run serially.
const minParallelChunk = 16

// Executor evaluates whole populations of genomes, splitting each batch
// across a pool of workers. Result slots are fixed by individual index
// before any worker starts, so the outcome is bit-for-bit identical at
// every worker count — parallelism changes only who computes a slot,
// never what is computed or where it lands. Evaluate is not safe for
// concurrent calls on the same Executor — each optimizer run owns one.
//
// The executor is also the failure domain of evaluation: a cancelled
// context stops the batch at the next chunk boundary (completed chunks
// are counted exactly, nothing else is), and a panic inside an
// evaluation is recovered, converted into a *PanicError carrying the
// offending genome, and returned after the remaining chunks have
// drained — a poisoned genome never strands sibling goroutines.
type Executor struct {
	ctx     context.Context // nil = never cancelled
	p       Problem
	dp      DeltaProblem // non-nil when p offers delta evaluation
	m       int
	workers int

	evals     *telemetry.Counter   // moea.evaluations
	deltas    *telemetry.Counter   // moea.delta.evaluations
	parEvals  *telemetry.Counter   // moea.parallel.evaluations
	panics    *telemetry.Counter   // moea.panics
	batchSize *telemetry.Gauge     // moea.executor.batch_size
	util      *telemetry.Histogram // moea.executor.utilization_pct
}

// NewExecutor builds an executor over the problem. A nil ctx never
// cancels. workers <= 0 selects GOMAXPROCS. A nil collector disables
// the executor metrics at the cost of one nil check per batch.
func NewExecutor(ctx context.Context, p Problem, workers int, tel *telemetry.Collector) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{
		ctx:       ctx,
		p:         p,
		m:         p.NumObjectives(),
		workers:   workers,
		evals:     tel.Counter("moea.evaluations"),
		deltas:    tel.Counter("moea.delta.evaluations"),
		parEvals:  tel.Counter("moea.parallel.evaluations"),
		panics:    tel.Counter("moea.panics"),
		batchSize: tel.Gauge("moea.executor.batch_size"),
		util:      tel.Histogram("moea.executor.utilization_pct"),
	}
	e.dp, _ = p.(DeltaProblem)
	tel.Gauge("moea.executor.workers").Set(float64(workers))
	return e
}

// Workers returns the resolved worker count.
func (e *Executor) Workers() int { return e.workers }

// cancelled reports whether the run's context has been cancelled.
func (e *Executor) cancelled() bool { return e.ctx != nil && e.ctx.Err() != nil }

// Evaluate fills the objective vector of every individual in the batch
// and returns the number of objective evaluations performed — exactly
// the completed ones, even on failure — and how many of those were
// resolved incrementally from their evaluation base (always 0 unless
// the problem offers delta evaluation and bases are provided; bases,
// when non-nil, is indexed like batch). The error is ErrInterrupted
// when the context cancelled the batch (some objective slots are then
// unwritten and the batch must be discarded), or a *PanicError when an
// evaluation panicked.
func (e *Executor) Evaluate(batch []Individual, bases []EvalBase) (evaluated, delta int, err error) {
	n := len(batch)
	if n == 0 {
		return 0, 0, nil
	}
	if e.cancelled() {
		return 0, 0, ErrInterrupted
	}
	for i := range batch {
		if batch[i].Obj == nil {
			batch[i].Obj = make([]float64, e.m)
		}
	}
	e.batchSize.Set(float64(n))
	evaluated, delta, err = e.evaluateAll(batch, bases)
	e.evals.Add(int64(evaluated))
	e.deltas.Add(int64(delta))
	return evaluated, delta, err
}

// evaluateAll evaluates the batch, splitting it across the worker pool
// when it is large enough. Batches below 2*minParallelChunk (and all
// batches at workers=1) run on the calling goroutine. evaluated is the
// exact count of completed evaluations and delta the number of them
// resolved incrementally (only completed chunks count toward either).
// A panic outranks an interruption in the returned error, and the pool
// always drains before returning.
func (e *Executor) evaluateAll(batch []Individual, bases []EvalBase) (evaluated, delta int, err error) {
	n := len(batch)
	baseSlice := func(lo, hi int) []EvalBase {
		if bases == nil {
			return nil
		}
		return bases[lo:hi]
	}
	if e.workers == 1 || n < 2*minParallelChunk {
		d, perr := e.evaluateRange(batch, baseSlice(0, n), 0)
		if perr != nil {
			return 0, 0, perr
		}
		return n, d, nil
	}
	chunk := (n + e.workers - 1) / e.workers
	if chunk < minParallelChunk {
		chunk = minParallelChunk
	}
	spawned := (n + chunk - 1) / chunk
	busy := make([]time.Duration, spawned)
	errs := make([]error, spawned)
	dcount := make([]int, spawned)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < spawned; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// The chunk boundary is the cancellation point: a chunk
			// either runs to completion or not at all, so evaluated
			// stays exact.
			if e.cancelled() {
				errs[w] = ErrInterrupted
				return
			}
			t0 := time.Now()
			dcount[w], errs[w] = e.evaluateRange(batch[lo:hi], baseSlice(lo, hi), lo)
			busy[w] = time.Since(t0)
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range errs {
		if errs[w] == nil {
			evaluated += min(chunk, n-w*chunk)
			delta += dcount[w]
		}
	}
	e.parEvals.Add(int64(evaluated))
	if wall := time.Since(start); wall > 0 && evaluated > 0 {
		var total time.Duration
		for _, d := range busy {
			total += d
		}
		e.util.Observe(100 * float64(total) / (float64(wall) * float64(spawned)))
	}
	// A panic is the root cause to surface; interruption only says the
	// run is winding down.
	var interrupted error
	for _, cerr := range errs {
		switch cerr.(type) {
		case nil:
		case *PanicError:
			return evaluated, delta, cerr
		default:
			interrupted = cerr
		}
	}
	return evaluated, delta, interrupted
}

// evaluateRange evaluates one contiguous sub-batch on the calling
// goroutine: incrementally from the individual's base when the problem
// offers delta evaluation and a base exists, fully otherwise (a
// declined delta falls back to a full evaluation too). The delta/full
// decision is a pure function of the genomes, so the split is identical
// at every worker count. A panic inside an evaluation is recovered into
// a *PanicError carrying the offending genome and its batch index as
// root-cause evidence.
func (e *Executor) evaluateRange(batch []Individual, bases []EvalBase, base int) (delta int, err error) {
	cur := 0
	defer func() {
		if r := recover(); r != nil {
			e.panics.Inc()
			err = &PanicError{Op: "evaluate", Index: base + cur, Genome: batch[cur].G.Clone(), Value: r, Stack: debug.Stack()}
		}
	}()
	for i := range batch {
		cur = i
		g, out := batch[i].G, batch[i].Obj
		if e.dp != nil && bases != nil && bases[i].G != nil && e.dp.EvaluateDelta(g, bases[i].G, bases[i].Obj, out) {
			delta++
		} else {
			e.p.Evaluate(g, out)
		}
	}
	return delta, nil
}

// parallelFor runs f over contiguous chunks of [0, n) on up to workers
// goroutines and waits for all of them, handing each call its chunk
// index w (0 <= w < max(workers, 1)) with the range. f must only write
// state owned by its own index range or chunk; chunk boundaries depend
// solely on n and workers, and per-index results are independent, so
// any workers value produces identical state. Small ranges and
// workers=1 run inline as chunk 0.
func parallelFor(n, workers int, f func(w, lo, hi int)) {
	if workers <= 1 || n < 2*minParallelChunk {
		f(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < minParallelChunk {
		chunk = minParallelChunk
	}
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
