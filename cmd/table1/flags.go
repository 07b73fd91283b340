package main

import (
	"fmt"
	"os"
	"time"

	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
)

// runConfig collects the flag values whose combinations are validated
// up front, before hours of benchmark synthesis start.
type runConfig struct {
	jobs            int
	workers         int
	checkpoint      string
	checkpointEvery int
	resume          string
	deadline        time.Duration
	algo, universe  string
}

// validateFlags rejects configurations that would fail mid-table:
// negative pool sizes, a checkpoint directory we cannot write into, a
// resume directory that does not exist, names -algo or -universe do not
// define. It returns the optimizer and fault universe they name.
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
	if c.checkpointEvery < 1 {
		return 0, 0, fmt.Errorf("-checkpoint-every must be >= 1, got %d", c.checkpointEvery)
	}
	if c.deadline < 0 {
		return 0, 0, fmt.Errorf("-deadline must be >= 0, got %v", c.deadline)
	}
	if c.checkpoint != "" {
		if err := writableDir(c.checkpoint); err != nil {
			return 0, 0, fmt.Errorf("-checkpoint: %w", err)
		}
	}
	if c.resume != "" {
		fi, err := os.Stat(c.resume)
		if err != nil {
			return 0, 0, fmt.Errorf("-resume: %w", err)
		}
		if !fi.IsDir() {
			return 0, 0, fmt.Errorf("-resume: %s is not a directory (table1 keeps one checkpoint per row)", c.resume)
		}
	}
	return algo, scope, nil
}

// writableDir probes the directory with a temp file: the only reliable
// writability test across permission models.
func writableDir(dir string) error {
	f, err := os.CreateTemp(dir, ".table1-probe-*")
	if err != nil {
		return fmt.Errorf("directory %q is not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(f.Name())
	return nil
}
