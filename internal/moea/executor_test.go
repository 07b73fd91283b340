package moea

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"rsnrobust/internal/telemetry"
)

// batchKnapsack wraps knapsackProblem with a BatchProblem fast path and
// counts how the executor reaches it.
type batchKnapsack struct {
	*knapsackProblem
	batchCalls  atomic.Int64
	batchedEval atomic.Int64
}

func (p *batchKnapsack) EvaluateBatch(gs []Genome, outs [][]float64) {
	p.batchCalls.Add(1)
	p.batchedEval.Add(int64(len(gs)))
	for i := range gs {
		p.Evaluate(gs[i], outs[i])
	}
}

func frontsEqual(a, b []Individual) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalObjectives(a[i].Obj, b[i].Obj) {
			return false
		}
	}
	return true
}

// TestWorkerInvariance is the determinism contract of the executor: the
// same seed must produce an identical run at every worker count, with or
// without the batch fast path.
func TestWorkerInvariance(t *testing.T) {
	plain := newKnapsack(31, 80)
	batch := &batchKnapsack{knapsackProblem: plain}
	base := Params{Population: 40, Generations: 30, PCrossover: 0.95, PMutateBit: 0.01, Seed: 3}
	for name, algo := range map[string]func(Problem, Params) (*Result, error){"spea2": SPEA2, "nsga2": NSGA2} {
		ref, err := algo(plain, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			for pname, prob := range map[string]Problem{"plain": plain, "batch": batch} {
				par := base
				par.Workers = workers
				res, err := algo(prob, par)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, pname, workers, err)
				}
				if !frontsEqual(ref.Front, res.Front) {
					t.Errorf("%s/%s workers=%d: front differs from serial reference", name, pname, workers)
				}
				if res.Evaluations != ref.Evaluations {
					t.Errorf("%s/%s workers=%d: evaluations = %d, want %d", name, pname, workers, res.Evaluations, ref.Evaluations)
				}
			}
		}
	}
	if batch.batchCalls.Load() == 0 {
		t.Error("executor never used the BatchProblem fast path")
	}
}

// TestEvaluationAccounting pins the exact evaluation counts of both
// algorithms: SPEA2 runs G·P evaluations (the last generation breeds no
// offspring), NSGA2 (G+1)·P; an OnProgress break after callback k
// (0-based) gives (k+1)·P resp. (k+2)·P because NSGA2 breeds before the
// callback.
func TestEvaluationAccounting(t *testing.T) {
	p := newKnapsack(37, 20)
	const pop, gens = 20, 12
	par := Params{Population: pop, Generations: gens, PCrossover: 0.95, PMutateBit: 0.01, Seed: 11}

	s, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if s.Evaluations != gens*pop {
		t.Errorf("SPEA2 full run: %d evaluations, want %d", s.Evaluations, gens*pop)
	}
	n, err := NSGA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if n.Evaluations != (gens+1)*pop {
		t.Errorf("NSGA2 full run: %d evaluations, want %d", n.Evaluations, (gens+1)*pop)
	}

	parBreak := par
	parBreak.OnProgress = func(pr Progress) bool { return pr.Gen < 4 }
	s, err = SPEA2(p, parBreak)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generations != 5 || s.Evaluations != 5*pop {
		t.Errorf("SPEA2 early break: gens=%d evals=%d, want 5 and %d", s.Generations, s.Evaluations, 5*pop)
	}
	n, err = NSGA2(p, parBreak)
	if err != nil {
		t.Fatal(err)
	}
	if n.Generations != 5 || n.Evaluations != 6*pop {
		t.Errorf("NSGA2 early break: gens=%d evals=%d, want 5 and %d", n.Generations, n.Evaluations, 6*pop)
	}
}

// TestExecutorTelemetry checks the executor's instruments: the
// evaluation counter matches Result.Evaluations, parallel evaluations
// flow when workers > 1, and the worker-count gauge is set.
func TestExecutorTelemetry(t *testing.T) {
	p := newKnapsack(41, 30)
	tel := telemetry.New()
	par := Params{Population: 64, Generations: 10, PCrossover: 0.95, PMutateBit: 0.01, Seed: 13, Workers: 4, Telemetry: tel}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("moea.evaluations").Value(); got != int64(res.Evaluations) {
		t.Errorf("moea.evaluations = %d, want %d", got, res.Evaluations)
	}
	if got := tel.Counter("moea.parallel.evaluations").Value(); got == 0 {
		t.Error("moea.parallel.evaluations = 0 with 4 workers and population 64")
	}
	if got := tel.Gauge("moea.executor.workers").Value(); got != 4 {
		t.Errorf("moea.executor.workers gauge = %v, want 4", got)
	}
	if got := tel.Gauge("moea.executor.batch_size").Value(); got != 64 {
		t.Errorf("moea.executor.batch_size gauge = %v, want 64", got)
	}
}

// TestMemoTelemetryCounters checks the run's evaluation counters now
// that no genome memo sits in front of the executor: moea.evaluations
// equals Result.Evaluations, every genome of every generation is
// evaluated (duplicate children included), and no moea.memo.* counter
// is registered.
func TestMemoTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	p := newKnapsack(11, 40)
	const pop, gens = 30, 15
	res, err := SPEA2(p, Params{Population: pop, Generations: gens, PCrossover: 0.95, PMutateBit: 0.02,
		Seed: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("moea.evaluations").Value(); got != int64(res.Evaluations) {
		t.Errorf("moea.evaluations = %d, want %d", got, res.Evaluations)
	}
	if res.Evaluations != gens*pop {
		t.Errorf("Result.Evaluations = %d, want %d (every genome evaluated)", res.Evaluations, gens*pop)
	}
	for name := range tel.Snapshot().Counters {
		if strings.HasPrefix(name, "moea.memo.") {
			t.Errorf("counter %s registered; the run has no genome memo", name)
		}
	}
}

// TestAssignFitness2MatchesReference cross-checks the two-objective
// fitness kernels — the Fenwick sweep for raw fitness and the grid
// search for density — against an independent brute-force
// implementation of the SPEA-2 definition, bit for bit, with density
// computed for every union member: a capacity above the union size
// makes selection fill an underfull archive, which ranks every member
// by F. Half the trials quantize the objectives to a handful of integer
// levels, forcing per-coordinate ties and exact duplicate points — the
// cases the Fenwick-sweep strength/raw-fitness computation must count
// exactly like the pairwise definition (equal points dominate neither
// way).
func TestAssignFitness2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(120)
		union := make([]Individual, n)
		for i := range union {
			if trial%2 == 0 {
				union[i] = Individual{Obj: []float64{rng.Float64() * 10, rng.Float64() * 10}}
			} else {
				union[i] = Individual{Obj: []float64{float64(rng.Intn(6)), float64(rng.Intn(6))}}
			}
		}
		ref := make([]Individual, n)
		copy(ref, union)
		referenceFitness(ref)
		for _, workers := range []int{1, 3} {
			got := make([]Individual, n)
			copy(got, union)
			environmentalSelection(got, n+1, 2, workers, nil)
			for i := range got {
				if got[i].fitness != ref[i].fitness || got[i].density != ref[i].density {
					t.Fatalf("trial %d workers %d: individual %d fitness/density (%v,%v), want (%v,%v)",
						trial, workers, i, got[i].fitness, got[i].density, ref[i].fitness, ref[i].density)
				}
			}
		}
	}
}

// referenceFitness is a straight-from-the-paper SPEA-2 fitness
// assignment used only as a test oracle: full sort for the k-th
// neighbour, generic Dominates, objDist2 distances.
func referenceFitness(union []Individual) {
	n := len(union)
	m := len(union[0].Obj)
	strength := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && Dominates(union[i].Obj, union[j].Obj) {
				strength[i]++
			}
		}
	}
	_, invRange := normalizeRanges(union, m)
	k := kNearest(n)
	for i := 0; i < n; i++ {
		raw := 0
		for j := 0; j < n; j++ {
			if i != j && Dominates(union[j].Obj, union[i].Obj) {
				raw += strength[j]
			}
		}
		var dists []float64
		for j := 0; j < n; j++ {
			if j != i {
				dists = append(dists, objDist2(union[i].Obj, union[j].Obj, invRange))
			}
		}
		sort.Float64s(dists)
		kk := k - 1
		if kk >= len(dists) {
			kk = len(dists) - 1
		}
		sigma := 0.0
		if kk >= 0 {
			sigma = dists[kk]
		}
		union[i].density = 1 / (math.Sqrt(sigma) + 2)
		union[i].fitness = float64(raw) + union[i].density
	}
}

// TestParallelFor checks chunking covers [0,n) exactly once for a range
// of shapes.
func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 31, 32, 100, 1000} {
		for _, workers := range []int{1, 2, 4, 13} {
			hits := make([]atomic.Int32, n)
			parallelFor(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, hits[i].Load())
				}
			}
		}
	}
}
