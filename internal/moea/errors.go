package moea

import (
	"errors"
	"fmt"
)

// ErrInterrupted marks a run that was stopped by cooperative
// cancellation (Params.Context) before reaching its generation budget.
// It is never returned to callers of SPEA2/NSGA2 — an interrupted run
// yields a valid partial Result with Interrupted set — but internal
// stages (the executor, the engine's evaluation helpers) use it to
// signal "stop cleanly" up the stack, and RunSet jobs that were never
// started report it wrapped around the context error.
var ErrInterrupted = errors.New("moea: run interrupted")

// ErrCheckpointCorrupt marks a checkpoint file that failed structural
// validation: wrong magic, bad checksum, truncated or inconsistent
// payload. Test with errors.Is.
var ErrCheckpointCorrupt = errors.New("moea: checkpoint corrupt")

// ErrCheckpointMismatch marks a structurally valid checkpoint that does
// not belong to the run being resumed: different algorithm, seed,
// genome size or population. Test with errors.Is.
var ErrCheckpointMismatch = errors.New("moea: checkpoint mismatch")

// PanicError is a panic recovered inside a worker pool — an evaluation
// chunk of the Executor or a job of a RunSet — converted into a
// structured error with the offending unit attached as root-cause
// evidence. The pool drains its remaining work before the error
// surfaces, so a single poisoned genome or job never tears down the
// process or strands sibling goroutines.
type PanicError struct {
	// Op names the pool: "evaluate" (executor chunk) or "job" (RunSet).
	Op string
	// Label is the RunSet job label, when applicable.
	Label string
	// Index is the batch index of the offending genome or the submission
	// index of the offending job.
	Index int
	// Genome is a private copy of the offending genome (executor panics
	// only).
	Genome Genome
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

// Error renders the root-cause evidence on one line; the stack is
// available separately for logs.
func (e *PanicError) Error() string {
	if e.Op == "job" && e.Label != "" {
		return fmt.Sprintf("moea: panic in job %q (#%d): %v", e.Label, e.Index, e.Value)
	}
	return fmt.Sprintf("moea: panic in %s (batch index %d): %v", e.Op, e.Index, e.Value)
}
