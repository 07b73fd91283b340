package moea

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// This file is the generation loop of both algorithms: K seeded
// sub-populations (the configured Population split across them)
// evolving in generation lockstep, exchanging their best individuals
// along a ring every MigrationEvery generations, with the final front
// the merged nondominated set. A single population is a one-island run:
// island 0 keeps the run seed and the whole population, and one island
// runs its phases inline and never migrates. Each island is a complete
// single-population run — its own engine, RNG stream, executor and
// buffer arena — so islands can run their phases on concurrent
// goroutines without sharing state, and the whole run is a pure
// function of (Seed, Islands): island k is seeded with
// islandSeed(Seed, k), the lockstep schedule and the migration
// decisions depend only on island state (never on timing or the RNG),
// and fronts merge in ring order. Bit-identical output at any worker
// count follows from the same property of the per-island runs.

// islandRun is the per-algorithm stepper the generation loop
// interleaves with migration: initialization (or resume), selection
// (which counts the generation), breeding (which recycles the previous
// union, so it must run after migration has decided which members stay
// referenced), the current best set, and the pool that mating selection
// and migration read (migration also writes it) with the algorithm's
// fitness order over it.
type islandRun interface {
	start() error
	selectPhase(gen int) error
	breedPhase() error
	current() []Individual
	eng() *engine
	pool() []Individual
	better(a, b *Individual) bool
	snapshot(gen int) *Checkpoint
}

// islandSeed derives island k's RNG seed. Island 0 keeps the run seed
// (a 1-island run is the single-population run); the others get
// splitmix64-scrambled offsets, decorrelated even for adjacent seeds.
func islandSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	x := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// popShare splits a total across K islands, earlier islands absorbing
// the remainder: share(k) = total/K + 1 for k < total%K.
func popShare(total, k, i int) int {
	share := total / k
	if i < total%k {
		share++
	}
	return share
}

// evolve runs the given algorithm on max(Params.Islands, 1) islands.
// Cancellation (Params.Context) is observed at the loop top and at
// evaluation-chunk boundaries; an interrupted run returns a valid
// partial Result with Interrupted set, never an error.
func evolve(algo string, p Problem, par Params) (*Result, error) {
	if err := par.normalize(); err != nil {
		return nil, err
	}
	K := max(par.Islands, 1)
	gen0 := 0
	if cp := par.Resume; cp != nil {
		// A single island resumes from the record itself, which its
		// engine validates.
		if K > 1 {
			if err := validateResume(algo, cp, &par, p.NumBits(), p.NumObjectives()); err != nil {
				return nil, err
			}
		}
		gen0 = cp.Generation
	}
	workers := par.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := make([]islandRun, K)
	for k := range runs {
		kp := par
		// The islands run concurrently, so each gets its share of the
		// pool; the ceiling keeps every island at one worker minimum.
		kp.Workers = (workers + K - 1) / K
		if K > 1 {
			kp.Islands = 1
			kp.Population = popShare(par.Population, K, k)
			kp.Seed = islandSeed(par.Seed, k)
			kp.Resume = nil
			if cp := par.Resume; cp != nil {
				kp.Resume = cp.IslandCkpts[k]
			}
		}
		e := newEngine(p, &kp)
		if algo == "nsga2" {
			runs[k] = &nsga2Run{e: e}
		} else {
			runs[k] = &spea2Run{e: e}
		}
	}

	// Initialize (or resume) every island, concurrently when there are
	// several: the initial population evaluation is the expensive part.
	if err := phaseAll(runs, phaseInit, gen0); err != nil {
		if errors.Is(err, ErrInterrupted) {
			return result(runs, true), nil
		}
		return nil, err
	}

	// checkpoint hands the state at the top of generation gen to
	// CheckpointFn: a single island's own record, or the island records
	// under a header with the aggregate accounting.
	checkpoint := func(gen int) error {
		var cp *Checkpoint
		if K == 1 {
			cp = runs[0].snapshot(gen)
		} else {
			cp = &Checkpoint{
				Algorithm:     algo,
				Seed:          par.Seed,
				NumBits:       p.NumBits(),
				Population:    par.Population,
				NumObjectives: p.NumObjectives(),
				Generation:    gen,
				Islands:       K,
				IslandCkpts:   make([]*Checkpoint, K),
			}
			for k, r := range runs {
				ic := r.snapshot(gen)
				cp.IslandCkpts[k] = ic
				cp.Evaluations += ic.Evaluations
				cp.DeltaEvals += ic.DeltaEvals
				cp.FullEvals += ic.FullEvals
			}
		}
		if err := par.CheckpointFn(cp); err != nil {
			return fmt.Errorf("moea: checkpoint at generation %d: %w", gen, err)
		}
		return nil
	}

	view := &frontView{runs: runs}
	interrupted := false
	for gen := gen0; gen < par.Generations; gen++ {
		if par.Context != nil && par.Context.Err() != nil {
			// The loop top is a consistent boundary — checkpoint it, so
			// SIGINT loses no completed generation.
			interrupted = true
			if par.CheckpointFn != nil {
				if err := checkpoint(gen); err != nil {
					return nil, err
				}
			}
			break
		}
		// The generation the run (re)started at is never checkpointed:
		// its state is exactly what initialization or resume produced.
		if par.CheckpointFn != nil && par.CheckpointEvery > 0 &&
			gen != gen0 && gen%par.CheckpointEvery == 0 {
			if err := checkpoint(gen); err != nil {
				return nil, err
			}
		}
		if err := phaseAll(runs, phaseSelect, gen); err != nil {
			if errors.Is(err, ErrInterrupted) {
				interrupted = true
				break
			}
			return nil, err
		}
		if (par.OnProgress != nil && !view.report(par.OnProgress, gen)) || gen == par.Generations-1 {
			break
		}
		if K > 1 && gen > 0 && gen%par.MigrationEvery == 0 {
			migrate(runs)
		}
		if err := phaseAll(runs, phaseBreed, gen); err != nil {
			// Mid-batch cancellation: the half-evaluated offspring are
			// discarded; the sets of the last completed selection are
			// the partial result.
			if errors.Is(err, ErrInterrupted) {
				interrupted = true
				break
			}
			return nil, err
		}
	}
	return result(runs, interrupted), nil
}

// result assembles a run's Result: the islands' summed accounting, the
// generations completed, and the front of their current sets merged in
// ring order.
func result(runs []islandRun, interrupted bool) *Result {
	res := &Result{Interrupted: interrupted}
	all := runs[0].current()
	if len(runs) > 1 {
		all = nil
		for _, r := range runs {
			all = append(all, r.current()...)
		}
	}
	for _, r := range runs {
		e := r.eng()
		res.Evaluations += e.res.Evaluations
		res.DeltaEvals += e.res.DeltaEvals
		res.FullEvals += e.res.FullEvals
		res.Generations = max(res.Generations, e.res.Generations)
	}
	res.Front = ParetoFilter(all)
	return res
}

// phase names one lockstep step of the islands.
type phase uint8

const (
	phaseInit phase = iota
	phaseSelect
	phaseBreed
)

// step runs phase ph of generation gen on one island.
func step(r islandRun, ph phase, gen int) error {
	switch ph {
	case phaseInit:
		return r.start()
	case phaseSelect:
		return r.selectPhase(gen)
	default:
		return r.breedPhase()
	}
}

// phaseAll runs one lockstep phase on every island — a single island
// inline, several on concurrent goroutines — and folds the per-island
// errors: a panic is the root cause to surface; an interruption only
// says the run is winding down.
func phaseAll(runs []islandRun, ph phase, gen int) error {
	if len(runs) == 1 {
		return step(runs[0], ph, gen)
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = step(runs[k], ph, gen)
		}(k)
	}
	wg.Wait()
	var interrupted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrInterrupted) {
			return err
		}
		interrupted = err
	}
	return interrupted
}

// migrate performs one ring migration k → (k+1) mod K: each island's
// best tenth of its pool (by the algorithm's fitness order, index
// tiebreak; at least one member, at most the receiver's pool) is cloned
// into the receiver's arena, then as many of each receiver's worst are
// replaced in place. Cloning everything before any injection keeps the
// exchange consistent — every migrant reflects the pre-migration state. The displaced victims stay referenced by the
// sender's last union, so the normal breed-phase recycle frees their
// buffers; migration itself draws no randomness and is a pure function
// of island state.
func migrate(runs []islandRun) {
	K := len(runs)
	incoming := make([][]Individual, K)
	for k := 0; k < K; k++ {
		dst := (k + 1) % K
		pool := runs[k].pool()
		n := min(max(len(pool)/10, 1), len(pool), len(runs[dst].pool()))
		if n == 0 {
			continue
		}
		order := rankOrder(runs[k])
		re := runs[dst].eng()
		in := make([]Individual, 0, n)
		for _, i := range order[:n] {
			src := pool[i]
			g := re.grabGenome()
			g.CopyFrom(src.G)
			o := re.grabObj()
			copy(o, src.Obj)
			in = append(in, Individual{G: g, Obj: o, fitness: src.fitness, density: src.density})
		}
		incoming[dst] = in
	}
	for k := 0; k < K; k++ {
		in := incoming[k]
		if len(in) == 0 {
			continue
		}
		pool := runs[k].pool()
		order := rankOrder(runs[k])
		worst := order[len(order)-len(in):]
		for j, i := range worst {
			pool[i] = in[j]
		}
	}
}

// rankOrder returns the pool indices sorted best-first by the
// algorithm's fitness order, ties broken by index — a deterministic
// total order.
func rankOrder(r islandRun) []int {
	pool := r.pool()
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(ia, ib int) int {
		if r.better(&pool[ia], &pool[ib]) {
			return -1
		}
		if r.better(&pool[ib], &pool[ia]) {
			return 1
		}
		return ia - ib
	})
	return idx
}
