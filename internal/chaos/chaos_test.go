package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rsnrobust/internal/moea"
	"rsnrobust/internal/telemetry"
)

// testProblem is a small bi-objective knapsack mirroring the
// selective-hardening structure.
type testProblem struct {
	value, cost []int64
	total       int64
}

func newTestProblem(seed int64, n int) *testProblem {
	rng := rand.New(rand.NewSource(seed))
	p := &testProblem{value: make([]int64, n), cost: make([]int64, n)}
	for i := 0; i < n; i++ {
		p.value[i] = 1 + rng.Int63n(100)
		p.cost[i] = 1 + rng.Int63n(20)
		p.total += p.value[i]
	}
	return p
}

func (p *testProblem) NumBits() int       { return len(p.value) }
func (p *testProblem) NumObjectives() int { return 2 }
func (p *testProblem) Evaluate(g moea.Genome, out []float64) {
	var v, c int64
	for i := 0; i < len(p.value); i++ {
		if g.Get(i) {
			v += p.value[i]
			c += p.cost[i]
		}
	}
	out[0] = float64(p.total - v)
	out[1] = float64(c)
}

func params(seed int64, workers int) moea.Params {
	return moea.Params{
		Population: 30, Generations: 20, PCrossover: 0.95, PMutateBit: 0.02,
		Seed: seed, Workers: workers,
	}
}

func fingerprint(res *moea.Result) string {
	s := fmt.Sprintf("gens=%d evals=%d;", res.Generations, res.Evaluations)
	for _, in := range res.Front {
		s += fmt.Sprintf("%x|%v;", in.G, in.Obj)
	}
	return s
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (worker pools must drain even on failure paths).
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	if err := WaitGoroutines(base, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestChaosGracefulPanic injects a panic into a single evaluation and
// checks the isolation contract: the run returns a structured
// *moea.PanicError with the offending genome and its batch index
// attached, the panic is counted on moea.panics, and no goroutine
// leaks.
func TestChaosGracefulPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		tel := telemetry.New()
		prob := New(newTestProblem(3, 40), Options{PanicAtEval: 250})
		par := params(9, workers)
		par.Telemetry = tel
		res, err := moea.SPEA2(prob, par)
		if res != nil || err == nil {
			t.Fatalf("workers=%d: panic did not surface as an error (res=%v err=%v)", workers, res, err)
		}
		var pe *moea.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a *moea.PanicError", workers, err)
		}
		if pe.Op != "evaluate" {
			t.Errorf("workers=%d: panic op = %q, want evaluate", workers, pe.Op)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error carries no stack", workers)
		}
		if pe.Index < 0 || pe.Genome == nil {
			t.Errorf("workers=%d: panic lacks genome evidence (index %d, genome %v)", workers, pe.Index, pe.Genome)
		}
		if got := tel.Snapshot().Counters["moea.panics"]; got != 1 {
			t.Errorf("workers=%d: moea.panics = %d, want 1", workers, got)
		}
		checkNoGoroutineLeak(t, base)
	}
}

// TestChaosGracefulCancel cancels at a generation boundary and checks
// the partial-result contract.
func TestChaosGracefulCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, onProgress := CancelAtGeneration(5)
		par := params(9, workers)
		par.Context = ctx
		par.OnProgress = onProgress
		res, err := moea.SPEA2(newTestProblem(3, 40), par)
		if err != nil {
			t.Fatalf("workers=%d: cancelled run errored: %v", workers, err)
		}
		if !res.Interrupted {
			t.Errorf("workers=%d: Interrupted not set", workers)
		}
		if len(res.Front) == 0 {
			t.Errorf("workers=%d: cancelled run lost its front", workers)
		}
		if res.Generations != 6 {
			t.Errorf("workers=%d: cancelled at generation boundary 6, run reports %d", workers, res.Generations)
		}
		checkNoGoroutineLeak(t, base)
	}
}

// TestChaosGracefulCancelIslands cancels an island-model run on a
// migration generation and checks the partial-result contract: a valid
// merged (nondominated) front survives, the periodic checkpoint written
// before the cancellation loads, and resuming from it converges to the
// uninterrupted run — cancellation mid-migration cannot corrupt the
// island state or the ring schedule.
func TestChaosGracefulCancelIslands(t *testing.T) {
	mkPar := func(workers int) moea.Params {
		par := params(9, workers)
		par.Generations = 16
		par.Islands = 3
		par.MigrationEvery = 4
		return par
	}
	clean, err := moea.SPEA2(newTestProblem(3, 40), mkPar(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		// Generation 8 is a migration generation (8 % MigrationEvery == 0):
		// the cancellation lands on the exchange itself.
		ctx, onProgress := CancelAtGeneration(8)
		par := mkPar(workers)
		par.Context = ctx
		par.OnProgress = onProgress
		par.CheckpointEvery = 1
		var last *moea.Checkpoint
		par.CheckpointFn = func(cp *moea.Checkpoint) error {
			var err error
			last, err = moea.DecodeCheckpoint(moea.EncodeCheckpoint(cp))
			return err
		}
		res, err := moea.SPEA2(newTestProblem(3, 40), par)
		if err != nil {
			t.Fatalf("workers=%d: cancelled island run errored: %v", workers, err)
		}
		if !res.Interrupted {
			t.Errorf("workers=%d: Interrupted not set", workers)
		}
		if len(res.Front) == 0 {
			t.Fatalf("workers=%d: cancelled island run lost its merged front", workers)
		}
		// The partial front is a valid merged front: mutually nondominated.
		for i := range res.Front {
			for j := range res.Front {
				if i != j && moea.Dominates(res.Front[j].Obj, res.Front[i].Obj) {
					t.Errorf("workers=%d: partial merged front member %d dominated by %d", workers, i, j)
				}
			}
		}
		if last == nil {
			t.Fatalf("workers=%d: no checkpoint survived the cancellation", workers)
		}
		if last.Islands != 3 || len(last.IslandCkpts) != 3 {
			t.Errorf("workers=%d: checkpoint records %d islands (%d states), want 3",
				workers, last.Islands, len(last.IslandCkpts))
		}
		rpar := mkPar(workers)
		rpar.Resume = last
		resumed, err := moea.SPEA2(newTestProblem(3, 40), rpar)
		if err != nil {
			t.Fatalf("workers=%d: resume from cancelled island run: %v", workers, err)
		}
		if fingerprint(resumed) != fingerprint(clean) {
			t.Errorf("workers=%d: resumed island run differs from uninterrupted run\n got %s\nwant %s",
				workers, fingerprint(resumed), fingerprint(clean))
		}
		checkNoGoroutineLeak(t, base)
	}
}

// TestChaosDelayInvariance injects an evaluation delay and checks that
// timing perturbation cannot change the result — the determinism
// guarantee extends to slow, jittery evaluation.
func TestChaosDelayInvariance(t *testing.T) {
	ref, err := moea.SPEA2(newTestProblem(3, 40), params(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := moea.SPEA2(
		New(newTestProblem(3, 40), Options{DelayEval: 77, Delay: 2 * time.Millisecond}),
		params(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(delayed) != fingerprint(ref) {
		t.Errorf("delay injection changed the result\n got %s\nwant %s", fingerprint(delayed), fingerprint(ref))
	}
}

// TestChaosCheckpointCorruption corrupts and truncates checkpoint files
// and checks that loading always fails with ErrCheckpointCorrupt —
// never a panic, never silent acceptance.
func TestChaosCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()
	cp := &moea.Checkpoint{
		Algorithm: "spea2", Seed: 1, NumBits: 40, Population: 2, Generation: 3,
		Pop: []moea.CheckpointIndividual{
			{Genome: moea.Genome{1}, Obj: []float64{1, 2}},
			{Genome: moea.Genome{2}, Obj: []float64{3, 4}},
		},
	}
	for seed := int64(0); seed < 64; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("c%d.ckpt", seed))
		if err := moea.SaveCheckpoint(path, cp); err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(path, seed); err != nil {
			t.Fatal(err)
		}
		if _, err := moea.LoadCheckpoint(path); !errors.Is(err, moea.ErrCheckpointCorrupt) {
			t.Errorf("seed %d: corrupted checkpoint load error %v does not wrap ErrCheckpointCorrupt", seed, err)
		}
	}
	for _, cut := range []int64{1, 7, 64, 1 << 20} {
		path := filepath.Join(dir, fmt.Sprintf("t%d.ckpt", cut))
		if err := moea.SaveCheckpoint(path, cp); err != nil {
			t.Fatal(err)
		}
		if err := TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		if _, err := moea.LoadCheckpoint(path); !errors.Is(err, moea.ErrCheckpointCorrupt) {
			t.Errorf("truncate %d: load error %v does not wrap ErrCheckpointCorrupt", cut, err)
		}
	}
}

// TestChaosCheckpointPowerLoss is the crash-durability drill for
// SaveCheckpoint: the failure mode it models is a power-loss-style kill
// that publishes a zero-length (or partial) file under the checkpoint's
// final name — exactly what a rename-before-fsync write order can leave
// behind. SaveCheckpoint fsyncs the temp file before the atomic rename
// (and the directory after), so the file under the final name is always
// a complete checkpoint; this drill asserts the recovery contract
// around it: a truncated-to-zero or partially-truncated file is
// detected as corrupt (never silently accepted, never a panic), and a
// subsequent SaveCheckpoint over the damaged file restores a loadable
// checkpoint without leaving temp-file litter.
func TestChaosCheckpointPowerLoss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := &moea.Checkpoint{
		Algorithm: "spea2", Seed: 1, NumBits: 40, Population: 2, Generation: 3,
		Pop: []moea.CheckpointIndividual{
			{Genome: moea.Genome{1}, Obj: []float64{1, 2}},
			{Genome: moea.Genome{2}, Obj: []float64{3, 4}},
		},
	}
	if err := moea.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	size, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate to zero: the "successful but empty" checkpoint a
	// non-durable write order could publish.
	if err := TruncateFile(path, size.Size()); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("drill setup: file is %d bytes, want 0", fi.Size())
	}
	if _, err := moea.LoadCheckpoint(path); !errors.Is(err, moea.ErrCheckpointCorrupt) {
		t.Errorf("zero-length checkpoint load error %v does not wrap ErrCheckpointCorrupt", err)
	}
	// Recovery: the next periodic checkpoint overwrites the damage.
	if err := moea.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	re, err := moea.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("re-saved checkpoint does not load: %v", err)
	}
	if re.Generation != cp.Generation || re.NumBits != cp.NumBits {
		t.Errorf("re-saved checkpoint decoded to gen %d/%d bits, want %d/%d",
			re.Generation, re.NumBits, cp.Generation, cp.NumBits)
	}
	// The atomic write path must not leave temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "run.ckpt" {
			t.Errorf("stray file %q left in checkpoint directory", e.Name())
		}
	}
}

// TestChaosResumeEquivalence is the crash-recovery drill: a run
// checkpoints periodically, an injected panic kills it mid-flight, and
// the resumed run must finish with a result byte-identical to a run
// that never crashed.
func TestChaosResumeEquivalence(t *testing.T) {
	clean, err := moea.SPEA2(newTestProblem(3, 40), params(9, 1))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	par := params(9, 1)
	par.CheckpointEvery = 10
	par.CheckpointFn = func(cp *moea.Checkpoint) error { return moea.SaveCheckpoint(path, cp) }
	// 30 init evals + 10 generations × 30 puts the checkpoint at eval
	// 330; the panic at 450 strikes a few generations later.
	_, err = moea.SPEA2(New(newTestProblem(3, 40), Options{PanicAtEval: 450}), par)
	var pe *moea.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("crash run returned %v, want *moea.PanicError", err)
	}

	cp, err := moea.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint written before the crash does not load: %v", err)
	}
	rpar := params(9, 1)
	rpar.Resume = cp
	resumed, err := moea.SPEA2(newTestProblem(3, 40), rpar)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(resumed) != fingerprint(clean) {
		t.Errorf("resume after crash differs from uninterrupted run\n got %s\nwant %s",
			fingerprint(resumed), fingerprint(clean))
	}
}

// TestChaosCancelDuringResume composes two failure modes: a run is
// cancelled, resumed, cancelled again, and resumed to completion; the
// final result must still be byte-identical to the uninterrupted run.
func TestChaosCancelDuringResume(t *testing.T) {
	clean, err := moea.SPEA2(newTestProblem(5, 36), params(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var resume *moea.Checkpoint
	for _, stopAt := range []int{4, 11} {
		ctx, onProgress := CancelAtGeneration(stopAt)
		par := params(2, 1)
		par.Context = ctx
		par.OnProgress = onProgress
		par.CheckpointEvery = 1
		par.CheckpointFn = func(cp *moea.Checkpoint) error { return moea.SaveCheckpoint(path, cp) }
		par.Resume = resume
		res, err := moea.SPEA2(newTestProblem(5, 36), par)
		if err != nil {
			t.Fatalf("stop at %d: %v", stopAt, err)
		}
		if !res.Interrupted {
			t.Fatalf("stop at %d: run was not interrupted", stopAt)
		}
		if resume, err = moea.LoadCheckpoint(path); err != nil {
			t.Fatalf("stop at %d: %v", stopAt, err)
		}
	}
	par := params(2, 1)
	par.Resume = resume
	final, err := moea.SPEA2(newTestProblem(5, 36), par)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(final) != fingerprint(clean) {
		t.Errorf("twice-interrupted run differs from uninterrupted run\n got %s\nwant %s",
			fingerprint(final), fingerprint(clean))
	}
}
