package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rsnrobust/internal/moea"
)

// TestMain doubles the test binary as the table1 binary: when re-exec'd
// with TABLE1_BE_MAIN=1 it runs main() on its own flags. The subprocess
// tests below use this to exercise the real CLI — checkpoint files,
// exact stdout — without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("TABLE1_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as table1 and returns its stdout with
// the last column of every line dropped: the wall-clock time column of
// both the table and the ablation.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLE1_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("table1 %v: %v\nstderr: %s", args, err, stderr.String())
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if line == "" {
			continue
		}
		line = strings.TrimRight(line, " \n")
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = strings.TrimRight(line[:i], " ")
		} else {
			line = ""
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestAblationGoldenCLI pins the optimizer ablation on two rows: every
// method's hypervolume and constrained picks — SPEA-2, NSGA-II, SPEA-2
// with uniform crossover, and the greedy, random and exact baselines —
// must reproduce byte for byte, apart from the time column.
func TestAblationGoldenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ablate_treeflat_q12710.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runCLI(t, "-ablate", "-quick", "-run", "^(TreeFlat|q12710)$"); got != string(want) {
		t.Errorf("ablation stdout deviates from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointResumeCLI is the table's checkpoint round trip: a run
// with -checkpoint prints the same row as a plain run and leaves a
// loadable <dir>/<name>.ckpt at a periodic boundary, and a run resumed
// from that directory prints the same row again, apart from the time
// column.
func TestCheckpointResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	args := []string{"-quick", "-run", "^TreeFlat$"}
	plain := runCLI(t, args...)
	if !strings.Contains(plain, "TreeFlat") {
		t.Fatalf("plain run printed no TreeFlat row:\n%s", plain)
	}
	if got := runCLI(t, append(args, "-checkpoint", dir, "-checkpoint-every", "5")...); got != plain {
		t.Errorf("-checkpoint changed the row\n got:\n%s\nwant:\n%s", got, plain)
	}
	cp, err := moea.LoadCheckpoint(filepath.Join(dir, "TreeFlat.ckpt"))
	if err != nil {
		t.Fatalf("checkpoint does not load: %v", err)
	}
	if cp.Generation <= 0 || cp.Generation%5 != 0 {
		t.Errorf("checkpoint at generation %d, want a positive multiple of 5", cp.Generation)
	}
	if got := runCLI(t, append(args, "-resume", dir)...); got != plain {
		t.Errorf("resumed row differs from the uninterrupted run\n got:\n%s\nwant:\n%s", got, plain)
	}
}
