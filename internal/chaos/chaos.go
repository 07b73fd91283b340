// Package chaos provides seeded, deterministic fault injection for the
// synthesis runtime: evaluation panics, generation-boundary
// cancellation, evaluation delays, and checkpoint-file corruption. The chaos
// test suites drive every failure path of the optimizer — panic
// isolation, cooperative cancellation, resume equivalence, decoder
// hardening — through these hooks instead of relying on timing or
// signals, so the failure scenarios are as reproducible as the happy
// path.
package chaos

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rsnrobust/internal/moea"
)

// Options selects the faults an injecting problem fires. Counters are
// 1-based; zero disables an injection.
type Options struct {
	// PanicAtEval panics on the Nth objective evaluation. Under
	// parallel evaluation exactly one evaluation panics (the counter is
	// atomic), though which genome is the Nth depends on chunk
	// scheduling; at Workers=1 the injection is fully deterministic.
	PanicAtEval int64
	// DelayEval sleeps Delay before the Nth objective evaluation.
	DelayEval int64
	// Delay is the sleep used by DelayEval (default 1ms).
	Delay time.Duration
}

func (o Options) delay() time.Duration {
	if o.Delay > 0 {
		return o.Delay
	}
	return time.Millisecond
}

// Problem wraps a moea.Problem with per-evaluation fault injection. It
// deliberately embeds the interface, not a concrete type, so it never
// exposes the wrapped problem's EvaluateDelta: the executor evaluates
// every genome through Evaluate, and every injection point is a single
// attributable evaluation.
type Problem struct {
	moea.Problem
	opts  Options
	evals atomic.Int64
}

// New wraps p with the given injections.
func New(p moea.Problem, opts Options) *Problem {
	return &Problem{Problem: p, opts: opts}
}

// Evals returns the number of evaluations performed so far.
func (p *Problem) Evals() int64 { return p.evals.Load() }

// Evaluate counts the evaluation, fires any due injection, then
// delegates to the wrapped problem.
func (p *Problem) Evaluate(g moea.Genome, out []float64) {
	n := p.evals.Add(1)
	if p.opts.PanicAtEval > 0 && n == p.opts.PanicAtEval {
		panic(fmt.Sprintf("chaos: injected panic at evaluation %d", n))
	}
	if p.opts.DelayEval > 0 && n == p.opts.DelayEval {
		time.Sleep(p.opts.delay())
	}
	p.Problem.Evaluate(g, out)
}

// CancelAtGeneration returns a context plus an OnProgress callback
// that cancels it at the end of generation g — the deterministic stand-
// in for a SIGINT arriving mid-run. Compose the callback with any
// existing one before installing it.
func CancelAtGeneration(g int) (context.Context, func(p moea.Progress) bool) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(p moea.Progress) bool {
		if p.Gen == g {
			cancel()
		}
		return true
	}
}

// CorruptFile deterministically flips one bit in the file: the byte at
// offset seed mod size gets bit (seed mod 8) inverted.
func CorruptFile(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("chaos: %s is empty, nothing to corrupt", path)
	}
	if seed < 0 {
		seed = -seed
	}
	data[seed%int64(len(data))] ^= 1 << (seed % 8)
	return os.WriteFile(path, data, 0o644)
}

// TruncateFile cuts n bytes off the end of the file (clamped to its
// size).
func TruncateFile(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}
