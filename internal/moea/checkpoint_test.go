package moea

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runResultFingerprint folds everything a checkpointed run must
// reproduce into one comparable string: the front, the generation count
// and the exact evaluation accounting.
func runResultFingerprint(res *Result) string {
	return fmt.Sprintf("front=%s gens=%d evals=%d delta=%d full=%d interrupted=%v",
		frontFingerprint(res.Front), res.Generations, res.Evaluations,
		res.DeltaEvals, res.FullEvals, res.Interrupted)
}

// ckptParams is the base configuration of the checkpoint tests.
func ckptParams(seed int64, workers int) Params {
	return Params{
		Population: 30, Generations: 20, PCrossover: 0.95, PMutateBit: 0.02,
		Seed: seed, Workers: workers,
	}
}

func runAlgo(t *testing.T, algo string, p Problem, par Params) *Result {
	t.Helper()
	var res *Result
	var err error
	if algo == "nsga2" {
		res, err = NSGA2(p, par)
	} else {
		res, err = SPEA2(p, par)
	}
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res
}

// captureCheckpoint runs the full budget while capturing the checkpoint
// written at generation `at`, returned as a decoded copy that owns its
// memory (exactly what a CLI resume would read from disk). The run
// completes, so its result doubles as the uninterrupted reference.
func captureCheckpoint(t *testing.T, algo string, p Problem, par Params, at int) (*Result, *Checkpoint) {
	t.Helper()
	var cp *Checkpoint
	par.CheckpointEvery = at
	par.CheckpointFn = func(c *Checkpoint) error {
		if c.Generation != at {
			return nil
		}
		decoded, err := DecodeCheckpoint(EncodeCheckpoint(c))
		if err != nil {
			return err
		}
		cp = decoded
		return nil
	}
	res := runAlgo(t, algo, p, par)
	if cp == nil {
		t.Fatalf("%s: no checkpoint captured at generation %d", algo, at)
	}
	return res, cp
}

// TestResumeEquivalence is the resume-bit-identity gate: a run
// checkpointed at a generation boundary and resumed from the decoded
// bytes produces exactly the result of the uninterrupted run — same
// front, same generation count, same evaluation accounting — for both
// algorithms, and across different worker counts on either side of the
// interruption.
func TestResumeEquivalence(t *testing.T) {
	for _, algo := range []string{"spea2", "nsga2"} {
		t.Run(algo, func(t *testing.T) {
			prob := newKnapsack(7, 48)
			ref, cp := captureCheckpoint(t, algo, prob, ckptParams(11, 1), 7)
			want := runResultFingerprint(ref)
			for _, workers := range []int{1, 4} {
				rpar := ckptParams(11, workers)
				rpar.Resume = cp
				got := runResultFingerprint(runAlgo(t, algo, prob, rpar))
				if got != want {
					t.Errorf("workers=%d: resumed run differs from uninterrupted run\n got %s\nwant %s",
						workers, got, want)
				}
			}
		})
	}
}

// TestResumeEquivalenceAcrossWorkers checkpoints a parallel run and
// resumes it serially: the interruption boundary must not leak the
// worker count into the trajectory.
func TestResumeEquivalenceAcrossWorkers(t *testing.T) {
	prob := newKnapsack(3, 64)
	ref, cp := captureCheckpoint(t, "spea2", prob, ckptParams(5, 4), 14)
	rpar := ckptParams(5, 1)
	rpar.Resume = cp
	if got, want := runResultFingerprint(runAlgo(t, "spea2", prob, rpar)), runResultFingerprint(ref); got != want {
		t.Errorf("parallel-checkpoint/serial-resume differs\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointRoundTrip pins the codec: encode→decode is the
// identity on every field, and re-encoding the decoded checkpoint
// reproduces the original bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Algorithm: "spea2", Seed: -42, NumBits: 130, Population: 4, NumObjectives: 2,
		Generation: 9, RNGDraws: 12345, Evaluations: 678, DeltaEvals: 600, FullEvals: 78,
		Pop: []CheckpointIndividual{
			{Genome: Genome{1, 2, 3}, Obj: []float64{1.5, -2.5}, Fitness: 0.25, Density: 3.75},
			{Genome: Genome{4, 5, 6}, Obj: []float64{0, 7}, Fitness: 1, Density: 0},
		},
		Archive: []CheckpointIndividual{
			{Genome: Genome{7, 8, 9}, Obj: []float64{2, 2}, Fitness: 0.5, Density: 0.5},
		},
	}
	data := EncodeCheckpoint(cp)
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", cp) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
	if !bytes.Equal(EncodeCheckpoint(got), data) {
		t.Error("decoded checkpoint does not re-encode to its input")
	}
}

// TestCheckpointSizeIsFixed: a checkpoint carries only the population
// and archive, so one run's checkpoints have the same length at every
// generation — the fixed header plus (pop + archive) individuals.
func TestCheckpointSizeIsFixed(t *testing.T) {
	prob := newKnapsack(7, 100)
	par := ckptParams(11, 1)
	par.Generations = 60
	par.CheckpointEvery = 5
	sizes := map[int]int{}
	par.CheckpointFn = func(c *Checkpoint) error {
		sizes[c.Generation] = len(EncodeCheckpoint(c))
		return nil
	}
	runAlgo(t, "spea2", prob, par)
	// SPEA-2 carries the population and an archive of the same size.
	want := ckptFixedBytes + len("spea2") +
		2*par.Population*ckptIndividualBytes(prob.NumBits(), prob.NumObjectives())
	for _, gen := range []int{5, 50} {
		if sizes[gen] != want {
			t.Errorf("checkpoint at generation %d is %d bytes, want %d", gen, sizes[gen], want)
		}
	}
}

// TestCheckpointOldVersionRejected: the codec has a single format, so a
// blob carrying an earlier version byte is corrupt even when its
// checksum is valid.
func TestCheckpointOldVersionRejected(t *testing.T) {
	data := EncodeCheckpoint(&Checkpoint{
		Algorithm: "spea2", Seed: 1, NumBits: 10, Population: 2, NumObjectives: 2, Generation: 1,
		Pop: []CheckpointIndividual{{Genome: Genome{3}, Obj: []float64{1, 2}}},
	})
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("current-version blob rejected: %v", err)
	}
	body := data[:len(data)-8]
	for _, v := range []byte{1, 2, 3} {
		body[7] = v
		old := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), fnv1a(body))
		if _, err := DecodeCheckpoint(old); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("version %d blob: error %v does not wrap ErrCheckpointCorrupt", v, err)
		}
	}
}

// TestCheckpointEmptyPopObjectives: the objective count is a header
// field, so it survives the round trip even when no individual in the
// payload records it, and resume validation uses it.
func TestCheckpointEmptyPopObjectives(t *testing.T) {
	cp := &Checkpoint{
		Algorithm: "spea2", Seed: 5, NumBits: 12, Population: 4,
		NumObjectives: 3, Generation: 1,
	}
	got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjectives != 3 {
		t.Errorf("empty-pop checkpoint decoded NumObjectives = %d, want 3", got.NumObjectives)
	}
	// Resume validation reads the header count: a 3-objective
	// checkpoint must not validate against a 2-objective engine.
	e := &engine{par: &Params{Seed: 5, Population: 4, Generations: 9}, nbits: 12, m: 2}
	got.Pop = []CheckpointIndividual{{Genome: Genome{1}, Obj: []float64{1, 2, 3}}}
	if err := e.validateResume("spea2", got); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("3-objective checkpoint against 2-objective engine: err = %v, want ErrCheckpointMismatch", err)
	}
	e.m = 3
	if err := e.validateResume("spea2", got); err != nil {
		t.Errorf("3-objective checkpoint against 3-objective engine: unexpected err %v", err)
	}
}

// TestCheckpointDecodeCorrupt feeds the decoder systematically damaged
// inputs: every one must produce an error wrapping ErrCheckpointCorrupt
// and none may panic.
func TestCheckpointDecodeCorrupt(t *testing.T) {
	cp := &Checkpoint{
		Algorithm: "nsga2", Seed: 1, NumBits: 70, Population: 2, Generation: 3,
		Pop: []CheckpointIndividual{
			{Genome: Genome{1, 2}, Obj: []float64{1, 2}, Fitness: 0, Density: 1},
			{Genome: Genome{3, 4}, Obj: []float64{3, 4}, Fitness: 1, Density: 0},
		},
	}
	data := EncodeCheckpoint(cp)
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(data); n++ {
			if _, err := DecodeCheckpoint(data[:n]); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCheckpointCorrupt", n, err)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(data); i++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x40
			if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("bit flip at offset %d: error %v does not wrap ErrCheckpointCorrupt", i, err)
			}
		}
	})
	t.Run("extension", func(t *testing.T) {
		if _, err := DecodeCheckpoint(append(append([]byte(nil), data...), 0xAA)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("appended byte: error does not wrap ErrCheckpointCorrupt")
		}
	})
}

// TestResumeValidation checks that structurally valid checkpoints from
// a different run are rejected with ErrCheckpointMismatch.
func TestResumeValidation(t *testing.T) {
	prob := newKnapsack(7, 48)
	par := ckptParams(11, 1)
	_, cp := captureCheckpoint(t, "spea2", prob, par, 7)
	mutate := []struct {
		name string
		mut  func(c Checkpoint) Checkpoint
	}{
		{"algorithm", func(c Checkpoint) Checkpoint { c.Algorithm = "nsga2"; return c }},
		{"seed", func(c Checkpoint) Checkpoint { c.Seed++; return c }},
		{"numbits", func(c Checkpoint) Checkpoint { c.NumBits++; return c }},
		{"population", func(c Checkpoint) Checkpoint { c.Population++; return c }},
		{"generation", func(c Checkpoint) Checkpoint { c.Generation = par.Generations; return c }},
		{"empty-pop", func(c Checkpoint) Checkpoint { c.Pop = nil; return c }},
	}
	for _, m := range mutate {
		bad := m.mut(*cp)
		rpar := ckptParams(11, 1)
		rpar.Resume = &bad
		if _, err := SPEA2(prob, rpar); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: error %v does not wrap ErrCheckpointMismatch", m.name, err)
		}
	}
}

// TestCancelPartialResult cancels a run from inside a generation
// callback and checks the partial-result contract: no error, a valid
// nonempty front, Interrupted set, and accounting bounded by the
// uninterrupted run's.
func TestCancelPartialResult(t *testing.T) {
	for _, algo := range []string{"spea2", "nsga2"} {
		for _, workers := range []int{1, 4} {
			prob := newKnapsack(7, 48)
			full := runAlgo(t, algo, prob, ckptParams(11, workers))

			ctx, cancel := context.WithCancel(context.Background())
			par := ckptParams(11, workers)
			par.Context = ctx
			par.OnProgress = func(pr Progress) bool {
				if pr.Gen == 5 {
					cancel()
				}
				return true
			}
			res := runAlgo(t, algo, prob, par)
			cancel()
			if !res.Interrupted {
				t.Errorf("%s workers=%d: Interrupted not set", algo, workers)
			}
			if len(res.Front) == 0 {
				t.Errorf("%s workers=%d: interrupted run lost its front", algo, workers)
			}
			if res.Generations <= 0 || res.Generations >= full.Generations {
				t.Errorf("%s workers=%d: interrupted after %d generations, full run has %d",
					algo, workers, res.Generations, full.Generations)
			}
			if res.Evaluations <= 0 || res.Evaluations >= full.Evaluations {
				t.Errorf("%s workers=%d: interrupted evaluations %d vs full %d",
					algo, workers, res.Evaluations, full.Evaluations)
			}
		}
	}
}

// TestCancelBeforeStart checks the degenerate partial result of a run
// cancelled before it begins: empty-or-initial front, no error.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	par := ckptParams(1, 1)
	par.Context = ctx
	res := runAlgo(t, "spea2", newKnapsack(1, 32), par)
	if !res.Interrupted {
		t.Error("Interrupted not set on pre-cancelled run")
	}
	if res.Generations != 0 {
		t.Errorf("pre-cancelled run reports %d generations", res.Generations)
	}
}

// TestSaveLoadCheckpoint exercises the atomic file round trip and the
// load-side corruption errors.
func TestSaveLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := &Checkpoint{
		Algorithm: "spea2", Seed: 9, NumBits: 10, Population: 2, Generation: 1,
		Pop: []CheckpointIndividual{{Genome: Genome{3}, Obj: []float64{1, 2}}},
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "spea2" || got.Seed != 9 || len(got.Pop) != 1 {
		t.Errorf("loaded checkpoint differs: %+v", got)
	}
	// Truncate the file: the load must fail with a corruption error.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("truncated file: error %v does not wrap ErrCheckpointCorrupt", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file: no error")
	}
}
