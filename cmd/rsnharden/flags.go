package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
)

// runConfig collects the flag values whose combinations need
// validating before any work starts: resume/checkpoint wiring, pool
// sizes and deadlines. Keeping it a plain struct makes the rules
// table-testable without touching the flag package.
type runConfig struct {
	seeds           int
	jobs            int
	workers         int
	stagnation      int
	checkpoint      string
	checkpointEvery int
	resume          string
	deadline        time.Duration
	algo, universe  string
}

// validateFlags rejects flag combinations that would fail late or
// silently misbehave: negative pool sizes, resuming a multi-seed
// sweep from a single-run checkpoint, checkpointing into a directory
// we cannot write, and resume combined with early stopping (the
// stagnation window restarts empty, so the resumed trajectory would
// diverge from the uninterrupted run), and names -algo or -universe do
// not define. It returns the optimizer and fault universe they name.
func validateFlags(c runConfig) (core.Algorithm, faults.Scope, error) {
	algo, err := core.ParseAlgorithm(c.algo)
	if err != nil {
		return 0, 0, fmt.Errorf("-algo: %w", err)
	}
	scope, err := faults.ParseScope(c.universe)
	if err != nil {
		return 0, 0, fmt.Errorf("-universe: %w", err)
	}
	if c.jobs < 0 {
		return 0, 0, fmt.Errorf("-jobs must be >= 0, got %d", c.jobs)
	}
	if c.workers < 0 {
		return 0, 0, fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	}
	if c.seeds < 1 {
		return 0, 0, fmt.Errorf("-seeds must be >= 1, got %d", c.seeds)
	}
	if c.checkpointEvery < 1 {
		return 0, 0, fmt.Errorf("-checkpoint-every must be >= 1, got %d", c.checkpointEvery)
	}
	if c.deadline < 0 {
		return 0, 0, fmt.Errorf("-deadline must be >= 0, got %v", c.deadline)
	}
	if c.resume != "" {
		if c.seeds > 1 {
			return 0, 0, errors.New("-resume holds the state of one run and cannot be combined with -seeds > 1")
		}
		if c.stagnation > 0 {
			return 0, 0, errors.New("-resume cannot be combined with -stagnation: the stagnation window does not survive a checkpoint, so the resumed run would diverge")
		}
	}
	if c.checkpoint != "" {
		if c.seeds > 1 {
			return 0, 0, errors.New("-checkpoint is single-run only: a multi-seed sweep would overwrite the same file")
		}
		if err := writableDir(filepath.Dir(c.checkpoint)); err != nil {
			return 0, 0, fmt.Errorf("-checkpoint: %w", err)
		}
	}
	return algo, scope, nil
}

// writableDir probes the directory with a temp file: the only reliable
// writability test across permission models.
func writableDir(dir string) error {
	f, err := os.CreateTemp(dir, ".rsnharden-probe-*")
	if err != nil {
		return fmt.Errorf("directory %q is not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(f.Name())
	return nil
}
