package moea

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// deltaKnapsack adds the DeltaProblem protocol to the knapsack test
// problem: both objectives are linear, so the incremental path is exact
// by construction. limit mirrors the production cutoff — pairs that
// differ in more bits decline so the fallback path stays exercised.
type deltaKnapsack struct {
	*knapsackProblem
	limit      int
	deltaCalls atomic.Int64
	declined   atomic.Int64
}

func (p *deltaKnapsack) EvaluateDelta(g, base Genome, baseObj, out []float64) bool {
	n := 0
	for w := range g {
		n += popcount(g[w] ^ base[w])
	}
	if n > p.limit {
		p.declined.Add(1)
		return false
	}
	var d0, d1 int64
	for i := 0; i < p.NumBits(); i++ {
		if g.Get(i) == base.Get(i) {
			continue
		}
		if g.Get(i) {
			d0 -= p.value[i]
			d1 += p.cost[i]
		} else {
			d0 += p.value[i]
			d1 -= p.cost[i]
		}
	}
	out[0] = float64(int64(baseObj[0]) + d0)
	out[1] = float64(int64(baseObj[1]) + d1)
	p.deltaCalls.Add(1)
	return true
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestDeltaOracle is the exactness gate of the incremental evaluation
// protocol at the engine level: a run over the delta-capable problem is
// bit-identical to the plain run — same front, same accounting — while
// actually taking the incremental path, the delta/full split sums to
// the evaluation count, and the split is identical at every worker
// count.
func TestDeltaOracle(t *testing.T) {
	plain := newKnapsack(17, 96)
	for _, algo := range []string{"spea2", "nsga2"} {
		t.Run(algo, func(t *testing.T) {
			par := Params{Population: 40, Generations: 25, PCrossover: 0.95,
				PMutateBit: 0.02, Seed: 5}
			ref := runAlgo(t, algo, plain, par)
			if ref.DeltaEvals != 0 {
				t.Errorf("plain problem reports %d delta evaluations", ref.DeltaEvals)
			}
			if ref.FullEvals != ref.Evaluations {
				t.Errorf("plain problem: FullEvals %d != Evaluations %d", ref.FullEvals, ref.Evaluations)
			}
			var first *Result
			for _, workers := range []int{1, 4} {
				dp := &deltaKnapsack{knapsackProblem: plain, limit: 24}
				wpar := par
				wpar.Workers = workers
				res := runAlgo(t, algo, dp, wpar)
				if !frontsEqual(ref.Front, res.Front) {
					t.Errorf("workers=%d: delta-evaluated front differs from plain run", workers)
				}
				if res.Evaluations != ref.Evaluations {
					t.Errorf("workers=%d: evaluations %d, want %d", workers, res.Evaluations, ref.Evaluations)
				}
				if res.DeltaEvals == 0 {
					t.Errorf("workers=%d: incremental path never taken", workers)
				}
				if res.DeltaEvals+res.FullEvals != res.Evaluations {
					t.Errorf("workers=%d: delta %d + full %d != evaluations %d",
						workers, res.DeltaEvals, res.FullEvals, res.Evaluations)
				}
				if dp.declined.Load()+dp.deltaCalls.Load() == 0 {
					t.Errorf("workers=%d: EvaluateDelta never called", workers)
				}
				if first == nil {
					first = res
				} else if res.DeltaEvals != first.DeltaEvals || res.FullEvals != first.FullEvals {
					t.Errorf("workers=%d: delta/full split (%d,%d) differs from serial (%d,%d)",
						workers, res.DeltaEvals, res.FullEvals, first.DeltaEvals, first.FullEvals)
				}
			}

			// A negative cutoff declines every pair (even unmutated
			// clones, which differ in zero bits): the run must fall
			// back to full evaluation everywhere and still match.
			dp := &deltaKnapsack{knapsackProblem: plain, limit: -1}
			res := runAlgo(t, algo, dp, par)
			if !frontsEqual(ref.Front, res.Front) {
				t.Error("fallback-only run front differs from plain run")
			}
			if res.DeltaEvals != 0 || res.FullEvals != res.Evaluations {
				t.Errorf("fallback-only run: delta %d full %d evaluations %d",
					res.DeltaEvals, res.FullEvals, res.Evaluations)
			}
			if dp.declined.Load() == 0 {
				t.Error("fallback-only run: EvaluateDelta never declined")
			}
		})
	}
}

// TestIslandWorkerInvariance is the island-model determinism contract:
// for a fixed (seed, islands) the run is bit-identical at every worker
// count — same merged front, same evaluation and delta accounting —
// and different island counts explore genuinely different trajectories.
func TestIslandWorkerInvariance(t *testing.T) {
	plain := newKnapsack(23, 80)
	for _, algo := range []string{"spea2", "nsga2"} {
		evalsByIslands := map[int]int{}
		for _, islands := range []int{1, 2, 4} {
			var ref *Result
			for _, workers := range []int{1, 4} {
				dp := &deltaKnapsack{knapsackProblem: plain, limit: 20}
				par := Params{Population: 48, Generations: 24, PCrossover: 0.95,
					PMutateBit: 0.02, Seed: 9, Islands: islands, MigrationEvery: 5,
					Workers: workers}
				res := runAlgo(t, algo, dp, par)
				if len(res.Front) == 0 {
					t.Fatalf("%s islands=%d workers=%d: empty front", algo, islands, workers)
				}
				if res.DeltaEvals == 0 {
					t.Errorf("%s islands=%d workers=%d: incremental path never taken", algo, islands, workers)
				}
				if res.DeltaEvals+res.FullEvals != res.Evaluations {
					t.Errorf("%s islands=%d workers=%d: delta %d + full %d != evaluations %d",
						algo, islands, workers, res.DeltaEvals, res.FullEvals, res.Evaluations)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !frontsEqual(ref.Front, res.Front) {
					t.Errorf("%s islands=%d workers=%d: front differs from serial run", algo, islands, workers)
				}
				if res.Evaluations != ref.Evaluations || res.DeltaEvals != ref.DeltaEvals {
					t.Errorf("%s islands=%d workers=%d: accounting (%d,%d) differs from serial (%d,%d)",
						algo, islands, workers, res.Evaluations, res.DeltaEvals, ref.Evaluations, ref.DeltaEvals)
				}
			}
			evalsByIslands[islands] = ref.Evaluations
		}
		if evalsByIslands[1] == 0 {
			t.Fatalf("%s: no single-population reference", algo)
		}
	}
}

// TestIslandMergedFrontNondominated checks the merged front invariant:
// no member of the cross-island front dominates another.
func TestIslandMergedFrontNondominated(t *testing.T) {
	p := newKnapsack(3, 64)
	par := Params{Population: 40, Generations: 20, PCrossover: 0.95,
		PMutateBit: 0.02, Seed: 1, Islands: 3}
	res := runAlgo(t, "spea2", p, par)
	for i := range res.Front {
		for j := range res.Front {
			if i != j && Dominates(res.Front[i].Obj, res.Front[j].Obj) {
				t.Fatalf("front[%d] dominates front[%d]", i, j)
			}
		}
	}
}

// TestIslandResumeEquivalence extends the resume-bit-identity gate to
// island runs: a combined checkpoint captured at a lockstep generation
// boundary resumes to exactly the uninterrupted result, at either
// worker count, and the checkpoint carries the per-island states.
func TestIslandResumeEquivalence(t *testing.T) {
	for _, algo := range []string{"spea2", "nsga2"} {
		t.Run(algo, func(t *testing.T) {
			prob := newKnapsack(7, 48)
			par := ckptParams(11, 1)
			par.Islands = 3
			par.MigrationEvery = 4
			ref, cp := captureCheckpoint(t, algo, prob, par, 6)
			if cp.Islands != 3 || len(cp.IslandCkpts) != 3 {
				t.Fatalf("combined checkpoint: islands=%d with %d states", cp.Islands, len(cp.IslandCkpts))
			}
			want := runResultFingerprint(ref)
			for _, workers := range []int{1, 4} {
				rpar := ckptParams(11, workers)
				rpar.Islands = 3
				rpar.MigrationEvery = 4
				rpar.Resume = cp
				got := runResultFingerprint(runAlgo(t, algo, prob, rpar))
				if got != want {
					t.Errorf("workers=%d: resumed island run differs\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// TestIslandResumeValidation checks both directions of the
// island/single mismatch and the island-count check.
func TestIslandResumeValidation(t *testing.T) {
	prob := newKnapsack(7, 48)
	par := ckptParams(11, 1)
	par.Islands = 2
	_, cp := captureCheckpoint(t, "spea2", prob, par, 6)

	// Island checkpoint into a single-population run.
	rpar := ckptParams(11, 1)
	rpar.Resume = cp
	if _, err := SPEA2(prob, rpar); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("island checkpoint into single run: %v, want ErrCheckpointMismatch", err)
	}
	// Wrong island count.
	rpar = ckptParams(11, 1)
	rpar.Islands = 4
	rpar.Resume = cp
	if _, err := SPEA2(prob, rpar); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("2-island checkpoint into 4-island run: %v, want ErrCheckpointMismatch", err)
	}
	// Single-population checkpoint into an island run.
	spar := ckptParams(11, 1)
	_, scp := captureCheckpoint(t, "spea2", prob, spar, 6)
	rpar = ckptParams(11, 1)
	rpar.Islands = 2
	rpar.Resume = scp
	if _, err := SPEA2(prob, rpar); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("single checkpoint into island run: %v, want ErrCheckpointMismatch", err)
	}
}

// TestIslandCancelPartialResult cancels an island run at the hooks of
// a migration generation — the migration still executes, then breeding
// observes the cancellation: the partial result must carry a valid
// merged front, the Interrupted flag, and the last generation-boundary
// checkpoint must resume to the uninterrupted result.
func TestIslandCancelPartialResult(t *testing.T) {
	prob := newKnapsack(7, 48)
	ctx, cancel := context.WithCancel(context.Background())
	var cp *Checkpoint
	par := ckptParams(11, 2)
	par.Islands = 2
	par.MigrationEvery = 3
	par.Context = ctx
	par.CheckpointEvery = 1
	par.CheckpointFn = func(c *Checkpoint) error {
		decoded, err := DecodeCheckpoint(EncodeCheckpoint(c))
		if err != nil {
			return err
		}
		cp = decoded
		return nil
	}
	par.OnProgress = func(pr Progress) bool {
		if pr.Gen == 6 { // 6 % MigrationEvery == 0: a migration generation
			cancel()
		}
		return true
	}
	res := runAlgo(t, "spea2", prob, par)
	cancel()
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if len(res.Front) == 0 {
		t.Fatal("interrupted island run lost its front")
	}
	if cp == nil {
		t.Fatal("no cancellation checkpoint written")
	}
	full := func() *Result {
		fpar := ckptParams(11, 1)
		fpar.Islands = 2
		fpar.MigrationEvery = 3
		return runAlgo(t, "spea2", prob, fpar)
	}()
	rpar := ckptParams(11, 1)
	rpar.Islands = 2
	rpar.MigrationEvery = 3
	rpar.Resume = cp
	resumed := runAlgo(t, "spea2", prob, rpar)
	if got, want := runResultFingerprint(resumed), runResultFingerprint(full); got != want {
		t.Errorf("cancel+resume differs from uninterrupted run\n got %s\nwant %s", got, want)
	}
}

// TestIslandCheckpointRoundTrip pins the codec on a combined island
// checkpoint: encode→decode is the identity, including nested states.
func TestIslandCheckpointRoundTrip(t *testing.T) {
	inner := func(seed int64) *Checkpoint {
		return &Checkpoint{
			Algorithm: "spea2", Seed: seed, NumBits: 70, Population: 2, NumObjectives: 2,
			Generation: 4, RNGDraws: 99, Evaluations: 10, DeltaEvals: 6, FullEvals: 4,
			Pop: []CheckpointIndividual{
				{Genome: Genome{1, 2}, Obj: []float64{1, 2}, Fitness: 0.5, Density: 1.5},
			},
		}
	}
	cp := &Checkpoint{
		Algorithm: "spea2", Seed: 42, NumBits: 70, Population: 4,
		NumObjectives: 2, Generation: 4, Evaluations: 20, DeltaEvals: 12, FullEvals: 8,
		Islands:     2,
		IslandCkpts: []*Checkpoint{inner(42), inner(-7)},
	}
	got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Islands != 2 || len(got.IslandCkpts) != 2 {
		t.Fatalf("decoded islands=%d states=%d", got.Islands, len(got.IslandCkpts))
	}
	if got.DeltaEvals != 12 || got.FullEvals != 8 {
		t.Errorf("decoded delta/full = %d/%d, want 12/8", got.DeltaEvals, got.FullEvals)
	}
	for k, ic := range got.IslandCkpts {
		want := fmt.Sprintf("%+v", inner([]int64{42, -7}[k]))
		if fmt.Sprintf("%+v", ic) != want {
			t.Errorf("island %d state mismatch:\n got %+v\nwant %s", k, ic, want)
		}
	}
	// Corrupting any byte — including inside the nested blobs — must
	// surface ErrCheckpointCorrupt, never a panic.
	data := EncodeCheckpoint(cp)
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("bit flip at offset %d: error %v does not wrap ErrCheckpointCorrupt", i, err)
		}
	}
}

// TestIslandParamsValidation pins the island-specific Params checks.
func TestIslandParamsValidation(t *testing.T) {
	p := newKnapsack(1, 16)
	base := Params{Population: 8, Generations: 3, PCrossover: 0.9, PMutateBit: 0.05, Seed: 1}
	for _, tc := range []struct {
		name string
		mut  func(*Params)
	}{
		{"negative islands", func(p *Params) { p.Islands = -1 }},
		{"population too small", func(p *Params) { p.Islands = 5 }},
		{"negative migration interval", func(p *Params) { p.Islands = 2; p.MigrationEvery = -1 }},
	} {
		par := base
		tc.mut(&par)
		if _, err := SPEA2(p, par); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestIslandSeedsAndShares pins the seed derivation and population
// split helpers.
func TestIslandSeedsAndShares(t *testing.T) {
	if islandSeed(77, 0) != 77 {
		t.Error("island 0 must keep the run seed")
	}
	seen := map[int64]bool{}
	for k := 0; k < 16; k++ {
		s := islandSeed(3, k)
		if seen[s] {
			t.Fatalf("duplicate island seed at k=%d", k)
		}
		seen[s] = true
	}
	for total := 1; total < 40; total++ {
		for k := 1; k <= 8; k++ {
			sum := 0
			for i := 0; i < k; i++ {
				share := popShare(total, k, i)
				sum += share
				if d := popShare(total, k, 0) - share; d < 0 || d > 1 {
					t.Fatalf("popShare(%d,%d,%d) unbalanced", total, k, i)
				}
			}
			if sum != total {
				t.Fatalf("popShare(%d,%d,·) sums to %d", total, k, sum)
			}
		}
	}
}
