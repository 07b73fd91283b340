package moea

import (
	"context"
	"fmt"

	"rsnrobust/internal/telemetry"
)

// Problem is a multi-objective pseudo-boolean minimization problem.
type Problem interface {
	// NumBits is the genome length.
	NumBits() int
	// NumObjectives is the number of objectives; all are minimized.
	NumObjectives() int
	// Evaluate writes the objective values of g into out
	// (len(out) == NumObjectives()). It must not retain g or out.
	Evaluate(g Genome, out []float64)
}

// DeltaProblem is an optional incremental fast path: a Problem that can
// derive a child's objectives from an already-evaluated base genome and
// the bit difference between the two, instead of re-scanning the whole
// genome. The engine offers every offspring's breeding parent as the
// base; individuals without one (the initial population) are evaluated
// fully.
//
// EvaluateDelta must either write into out exactly the values Evaluate
// would produce for g (bit-for-bit — incremental arithmetic may not
// drift) and return true, or leave out untouched and return false to
// make the caller fall back to a full evaluation. The decision must be
// a pure function of the genomes (typically a difference-size
// threshold), never of timing or shared state, so evaluation stays
// deterministic at every worker count. Implementations must be safe for
// concurrent calls and must not retain any of the slices.
type DeltaProblem interface {
	Problem
	EvaluateDelta(g, base Genome, baseObj, out []float64) bool
}

// EvalBase names an already-evaluated genome whose objective vector can
// seed a delta evaluation of a related genome (an offspring's breeding
// parent). A zero EvalBase means "no base — evaluate fully".
type EvalBase struct {
	G   Genome
	Obj []float64
}

// Individual is a candidate solution with its evaluated objectives.
type Individual struct {
	G   Genome
	Obj []float64
	// fitness is algorithm-specific scratch (SPEA-2 F(i), NSGA-II rank).
	fitness float64
	// density is algorithm-specific scratch (crowding / k-NN density).
	density float64
}

// Fitness returns the algorithm-specific fitness of the individual as of
// the last generation it was evaluated in (informational).
func (in *Individual) Fitness() float64 { return in.fitness }

// CrossoverKind selects the recombination operator.
type CrossoverKind uint8

// Crossover operators. The paper uses one-point crossover; uniform
// crossover exists for the operator ablation.
const (
	OnePoint CrossoverKind = iota
	Uniform
)

// String names the operator.
func (c CrossoverKind) String() string {
	if c == Uniform {
		return "uniform"
	}
	return "one-point"
}

// Params configures an evolutionary run. The defaults (via Defaults)
// reproduce the operator settings of the paper's Section VI.
type Params struct {
	// Population is the number of individuals per generation, and the
	// capacity of the SPEA-2 archive. The paper uses 300 for networks
	// with more than 100 multiplexers, else 100.
	Population int
	// Generations is the number of generations to run.
	Generations int
	// PCrossover is the crossover probability (paper: 0.95).
	PCrossover float64
	// Crossover selects the recombination operator (default: the
	// paper's one-point crossover).
	Crossover CrossoverKind
	// PMutateBit is the independent per-bit mutation probability
	// (paper: 0.01).
	PMutateBit float64
	// Seed drives the deterministic pseudo-random run.
	Seed int64
	// Seeds are optional genomes that take the first slots of the
	// initial population; the synthesis (internal/core) injects the two
	// extreme solutions, nothing and everything hardened.
	Seeds []Genome
	// Workers is the evaluation worker-pool size: 0 selects
	// GOMAXPROCS, 1 forces serial evaluation. The result is
	// bit-for-bit identical at every worker count.
	Workers int
	// Islands, when greater than 1, runs the island model: K seeded
	// sub-populations (the total Population is split across them) evolve
	// concurrently in generation lockstep, each sending its best tenth
	// (at least one individual) to its ring successor every
	// MigrationEvery generations, and the final front is the merged
	// nondominated set. The run is a pure function of (Seed, Islands):
	// bit-identical at any worker count. 0 and 1 both run a single
	// population: one island, which never migrates.
	Islands int
	// MigrationEvery is the island-model migration interval in
	// generations (default 10). Migration happens after the selection of
	// every generation g with g > 0 and g % MigrationEvery == 0.
	MigrationEvery int
	// Telemetry, if non-nil, receives the executor's instruments
	// (evaluation counters, batch-size gauge, utilization histogram).
	Telemetry *telemetry.Collector
	// Context, if non-nil, cooperatively cancels the run: cancellation
	// is observed at generation boundaries and between evaluation
	// chunks, and the run returns a valid partial Result — the best
	// front so far with Interrupted set and exact evaluation
	// accounting for the work that completed. A nil context never
	// cancels.
	Context context.Context
	// CheckpointEvery, together with CheckpointFn, enables periodic
	// checkpointing: every CheckpointEvery generations (at the loop
	// top, a consistent boundary) and once more when cancellation is
	// observed at a boundary, CheckpointFn receives the run state.
	CheckpointEvery int
	// CheckpointFn persists a checkpoint. The *Checkpoint aliases live
	// engine buffers and is valid only for the duration of the call —
	// encode or copy before returning. A non-nil error aborts the run.
	CheckpointFn func(*Checkpoint) error
	// Resume, if non-nil, restores the run from a checkpoint instead of
	// initializing a fresh population. The checkpoint must match the
	// run (algorithm, seed, genome size, population) or
	// the run fails with ErrCheckpointMismatch. A resumed run is
	// bit-identical to the uninterrupted run from the same parameters.
	Resume *Checkpoint
	// OnProgress, if non-nil, is called after every generation with the
	// run's exact per-run progress counters (unlike collector-global
	// telemetry, these are not polluted by concurrent runs); returning
	// false stops the run early. The current nondominated front is
	// Progress.Front, filtered only if the callback reads it.
	OnProgress func(p Progress) bool
}

// Progress is the exact per-run state handed to Params.OnProgress at
// each generation boundary. All counters are cumulative for this run
// only — they come from the engine's own accounting, not from shared
// telemetry instruments.
type Progress struct {
	// Gen is the zero-based generation index just completed.
	Gen int
	// Evaluations counts the objective evaluations so far.
	Evaluations int
	view        *frontView
}

// Front returns the generation's nondominated front, sorted by the
// first objective with duplicates removed — what ParetoFilter returns
// for the live population (an island run's islands merged in ring
// order). The filter runs on the first call in a generation; later
// calls return the same slice, and a generation whose Front is never
// called pays nothing for it. The slice and its individuals (genome
// and objective slices included) are valid only during the OnProgress
// call: the engine recycles non-survivors' buffers into the next
// generation, so callers that retain them must deep-copy. After the
// call returns, Front returns nil.
func (p Progress) Front() []Individual {
	v := p.view
	if v == nil {
		return nil
	}
	if !v.read {
		pop := v.runs[0].current()
		if len(v.runs) > 1 {
			v.merged = v.merged[:0]
			for _, r := range v.runs {
				v.merged = append(v.merged, r.current()...)
			}
			pop = v.merged
		}
		v.front, v.read = ParetoFilter(pop), true
	}
	return v.front
}

// frontView is the run-owned state behind Progress.Front: the islands
// whose current sets make up the population — a single island's read
// directly, several merged into a buffer reused across generations —
// and, once read, its front.
type frontView struct {
	runs   []islandRun
	merged []Individual
	front  []Individual
	read   bool
}

// report hands hook the progress of generation gen — the islands'
// summed evaluation count — with the view open, and closes it when the
// hook returns, so that a Progress kept past its callback reads a nil
// front.
func (v *frontView) report(hook func(Progress) bool, gen int) bool {
	p := Progress{Gen: gen, view: v}
	for _, r := range v.runs {
		p.Evaluations += r.eng().res.Evaluations
	}
	v.front, v.read = nil, false
	cont := hook(p)
	v.front, v.read = nil, true
	return cont
}

// Defaults returns the paper's parameters for a problem with the given
// number of multiplexers: population 300 above 100 muxes, else 100;
// crossover 0.95; per-bit mutation 0.01.
func Defaults(numMuxes int, generations int, seed int64) Params {
	pop := 100
	if numMuxes > 100 {
		pop = 300
	}
	return Params{
		Population:  pop,
		Generations: generations,
		PCrossover:  0.95,
		PMutateBit:  0.01,
		Seed:        seed,
	}
}

// normalize validates the parameters and fills in the defaults; evolve
// runs it once per run, before splitting the population into islands.
func (p *Params) normalize() error {
	if p.Population < 2 {
		return fmt.Errorf("moea: population must be at least 2, got %d", p.Population)
	}
	if p.Generations < 1 {
		return fmt.Errorf("moea: generations must be positive, got %d", p.Generations)
	}
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("moea: checkpoint interval must be non-negative, got %d", p.CheckpointEvery)
	}
	if p.CheckpointEvery > 0 && p.CheckpointFn == nil {
		return fmt.Errorf("moea: CheckpointEvery set without a CheckpointFn")
	}
	if p.Islands < 0 {
		return fmt.Errorf("moea: islands must be non-negative, got %d", p.Islands)
	}
	if p.Islands > 1 && p.Population < 2*p.Islands {
		return fmt.Errorf("moea: population %d cannot seed %d islands of at least 2", p.Population, p.Islands)
	}
	if p.MigrationEvery < 0 {
		return fmt.Errorf("moea: migration interval must be non-negative, got %d", p.MigrationEvery)
	}
	if p.MigrationEvery == 0 {
		p.MigrationEvery = 10
	}
	return nil
}

// Result is the outcome of an evolutionary run.
type Result struct {
	// Front is the final nondominated set, sorted by the first
	// objective, duplicates removed.
	Front []Individual
	// Generations is the number of generations actually run.
	Generations int
	// Evaluations is the number of objective evaluations performed:
	// every genome submitted for evaluation counts once.
	Evaluations int
	// DeltaEvals and FullEvals split Evaluations by path: evaluations
	// resolved incrementally from a parent (DeltaProblem) versus full
	// genome scans. They always sum to Evaluations; both values are
	// identical at any worker count (the delta/full decision is a pure
	// function of the genomes).
	DeltaEvals, FullEvals int
	// Interrupted reports that the run was cancelled before its budget
	// (Params.Context); Front is the best front at the last completed
	// generation boundary and the accounting covers exactly the work
	// performed.
	Interrupted bool
}
