package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestValidateFlags pins the up-front flag checks: pool sizes,
// checkpoint-directory writability and resume-directory existence.
func TestValidateFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     runConfig
		wantErr bool
	}{
		{"defaults", runConfig{checkpointEvery: 10, algo: "spea2", universe: "control"}, false},
		{"checkpoint-writable", runConfig{checkpointEvery: 10, checkpoint: dir}, false},
		{"resume-existing-dir", runConfig{checkpointEvery: 10, resume: dir}, false},
		{"deadline", runConfig{checkpointEvery: 10, deadline: time.Minute}, false},
		{"negative-jobs", runConfig{checkpointEvery: 10, jobs: -2}, true},
		{"negative-workers", runConfig{checkpointEvery: 10, workers: -1}, true},
		{"zero-checkpoint-every", runConfig{checkpointEvery: 0}, true},
		{"negative-deadline", runConfig{checkpointEvery: 10, deadline: -time.Second}, true},
		{"checkpoint-missing-dir", runConfig{checkpointEvery: 10, checkpoint: filepath.Join(dir, "absent")}, true},
		{"resume-missing-dir", runConfig{checkpointEvery: 10, resume: filepath.Join(dir, "absent")}, true},
		{"resume-not-a-dir", runConfig{checkpointEvery: 10, resume: file}, true},
		{"nsga2-all", runConfig{checkpointEvery: 10, algo: "nsga2", universe: "all"}, false},
		{"unknown-algo", runConfig{checkpointEvery: 10, algo: "nsga3", universe: "control"}, true},
		{"uppercase-universe", runConfig{checkpointEvery: 10, algo: "spea2", universe: "ALL"}, true},
		{"unknown-universe", runConfig{checkpointEvery: 10, algo: "spea2", universe: "bogus"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := validateFlags(tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Errorf("validateFlags(%+v): err = %v, wantErr %v", tc.cfg, err, tc.wantErr)
			}
		})
	}
}
