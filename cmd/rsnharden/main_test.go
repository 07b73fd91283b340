package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rsnrobust/internal/moea"
)

// TestMain doubles the test binary as the rsnharden binary: when
// re-exec'd with RSNHARDEN_BE_MAIN=1 it runs main() on its own flags.
// The subprocess tests below use this to exercise the real CLI —
// signal handling, checkpoint files, exact stdout — without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("RSNHARDEN_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as rsnharden and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	stdout, _ := runCLIOutputs(t, args...)
	return stdout
}

// runCLIOutputs is runCLI returning stderr as well.
func runCLIOutputs(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RSNHARDEN_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rsnharden %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestProgressCLI pins -progress: stderr carries one \r-led line per
// generation, the last one for the final generation with the run's
// full evaluation count, and stdout stays byte-identical to the run
// without the flag.
func TestProgressCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	args := []string{"-name", "TreeFlat", "-generations", "12", "-seed", "3"}
	plain := runCLI(t, args...)
	stdout, stderr := runCLIOutputs(t, append(args, "-progress")...)
	if stdout != plain {
		t.Errorf("-progress changed stdout\n got:\n%s\nwant:\n%s", stdout, plain)
	}
	var gens []string
	for _, line := range strings.Split(strings.ReplaceAll(stderr, "\r", "\n"), "\n") {
		if strings.HasPrefix(line, "gen ") {
			gens = append(gens, line)
		}
	}
	if len(gens) != 12 {
		t.Fatalf("%d progress lines, want one per generation (12):\n%s", len(gens), stderr)
	}
	last := strings.Fields(gens[len(gens)-1])
	if last[1] != "12" {
		t.Errorf("last progress line reports generation %s, want 12: %q", last[1], gens[len(gens)-1])
	}
	// The line's evaluation count is the run's, as stdout reports it.
	evals := last[len(last)-1]
	if !strings.Contains(plain, "12  (spea2, "+evals+" evaluations)") {
		t.Errorf("last progress line reports %s evaluations; stdout says:\n%s", evals, plain)
	}
}

// TestResumeEquivalenceCLI is the end-to-end resume gate: a run
// resumed from a checkpoint file must print stdout byte-identical to
// the uninterrupted run, at any worker count. The checkpoint comes
// from a shorter-budget run — the trajectory is a prefix of the full
// run's, since the budget only bounds the loop.
func TestResumeEquivalenceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	full := runCLI(t, "-name", "TreeFlat", "-generations", "25", "-seed", "3")
	runCLI(t, "-name", "TreeFlat", "-generations", "12", "-seed", "3",
		"-checkpoint", ckpt, "-checkpoint-every", "5")
	for _, workers := range []string{"1", "2"} {
		resumed := runCLI(t, "-name", "TreeFlat", "-generations", "25", "-seed", "3",
			"-resume", ckpt, "-workers", workers)
		if resumed != full {
			t.Errorf("workers=%s: resumed stdout differs from uninterrupted run\n got:\n%s\nwant:\n%s",
				workers, resumed, full)
		}
	}
	if strings.Contains(full, "interrupted") {
		t.Errorf("uninterrupted run printed an interrupted line:\n%s", full)
	}
}

// TestThreeObjectivesGoldenCLI pins the shipped 3-objective scenario
// (damage × cost × test time on TreeFlat) to a golden stdout: the
// objectives line, the Table-I-style constrained picks, and the named
// per-objective front table must reproduce byte for byte, at any
// worker count.
func TestThreeObjectivesGoldenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "three_objectives_treeflat.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		got := runCLI(t, "-name", "TreeFlat", "-generations", "25", "-seed", "3",
			"-objectives", "damage,cost,test_time", "-front", "-workers", workers)
		if got != string(want) {
			t.Errorf("workers=%s: 3-objective stdout deviates from golden\n got:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
	// A permuted spelling canonicalizes to the same run.
	if got := runCLI(t, "-name", "TreeFlat", "-generations", "25", "-seed", "3",
		"-objectives", "test_time,cost,damage", "-front"); got != string(want) {
		t.Errorf("permuted objective spelling deviates from golden\n got:\n%s", got)
	}
}

// TestSIGINTWritesCheckpoint interrupts a live run with the real
// signal: the process must drain at a generation boundary, write a
// loadable checkpoint, print the partial-result summary with the
// interrupted marker, and exit zero.
func TestSIGINTWritesCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(os.Args[0],
		"-name", "TreeFlat", "-generations", "500000", "-seed", "3",
		"-checkpoint", ckpt, "-checkpoint-every", "1")
	cmd.Env = append(os.Environ(), "RSNHARDEN_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first periodic checkpoint so the interrupt lands
	// mid-optimization, then signal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared within 30s\nstderr: %s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted run exited with %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("interrupted run did not drain within 30s")
	}
	out := stdout.String()
	if !strings.Contains(out, "interrupted    true") {
		t.Errorf("partial-result summary lacks the interrupted marker:\n%s", out)
	}
	cp, err := moea.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint written on SIGINT does not load: %v", err)
	}
	if cp.Generation < 1 || len(cp.Pop) == 0 {
		t.Errorf("checkpoint is not a usable state: generation %d, population %d", cp.Generation, len(cp.Pop))
	}
}
