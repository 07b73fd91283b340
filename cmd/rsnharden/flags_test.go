package main

import (
	"path/filepath"
	"testing"
	"time"

	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
)

// TestValidateFlags pins the up-front rejection of flag combinations
// that would otherwise fail late or silently diverge.
func TestValidateFlags(t *testing.T) {
	dir := t.TempDir()
	ok := runConfig{seeds: 1, checkpointEvery: 10, algo: "spea2", universe: "all"}
	cases := []struct {
		name    string
		mut     func(runConfig) runConfig
		wantErr bool
	}{
		{"defaults", func(c runConfig) runConfig { return c }, false},
		{"checkpoint-into-writable-dir", func(c runConfig) runConfig {
			c.checkpoint = filepath.Join(dir, "run.ckpt")
			return c
		}, false},
		{"resume-single-seed", func(c runConfig) runConfig { c.resume = "run.ckpt"; return c }, false},
		{"sweep-with-deadline", func(c runConfig) runConfig {
			c.seeds, c.deadline = 4, time.Minute
			return c
		}, false},
		{"negative-jobs", func(c runConfig) runConfig { c.jobs = -1; return c }, true},
		{"negative-workers", func(c runConfig) runConfig { c.workers = -3; return c }, true},
		{"zero-seeds", func(c runConfig) runConfig { c.seeds = 0; return c }, true},
		{"zero-checkpoint-every", func(c runConfig) runConfig { c.checkpointEvery = 0; return c }, true},
		{"negative-deadline", func(c runConfig) runConfig { c.deadline = -time.Second; return c }, true},
		{"resume-with-multi-seed", func(c runConfig) runConfig {
			c.resume, c.seeds = "run.ckpt", 2
			return c
		}, true},
		{"resume-with-stagnation", func(c runConfig) runConfig {
			c.resume, c.stagnation = "run.ckpt", 50
			return c
		}, true},
		{"checkpoint-with-multi-seed", func(c runConfig) runConfig {
			c.checkpoint, c.seeds = filepath.Join(dir, "run.ckpt"), 2
			return c
		}, true},
		{"checkpoint-into-missing-dir", func(c runConfig) runConfig {
			c.checkpoint = filepath.Join(dir, "no-such-subdir", "run.ckpt")
			return c
		}, true},
		{"nsga2-control", func(c runConfig) runConfig { c.algo, c.universe = "nsga2", "control"; return c }, false},
		{"unknown-algo", func(c runConfig) runConfig { c.algo = "nsga3"; return c }, true},
		{"unknown-universe", func(c runConfig) runConfig { c.universe = "bogus"; return c }, true},
		{"uppercase-universe", func(c runConfig) runConfig { c.universe = "ALL"; return c }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := validateFlags(tc.mut(ok))
			if (err != nil) != tc.wantErr {
				t.Errorf("validateFlags: err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
	algo, scope, err := validateFlags(runConfig{seeds: 1, checkpointEvery: 10, algo: "nsga2", universe: "control"})
	if err != nil || algo != core.AlgoNSGA2 || scope != faults.ScopeControl {
		t.Errorf("validateFlags(nsga2, control) = %v, %v, %v", algo, scope, err)
	}
}
