package moea

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// This file is the island-model driver: K seeded sub-populations (the
// configured Population split across them) evolving in generation
// lockstep, exchanging their best individuals along a ring every
// MigrationEvery generations, with the final front the merged
// nondominated set. Each island is a complete single-population run —
// its own engine, RNG stream, executor and buffer arena — so islands
// can run their phases on concurrent goroutines without sharing state,
// and the whole run is a pure function of (Seed, Islands): island k is
// seeded with islandSeed(Seed, k), the lockstep schedule and the
// migration decisions depend only on island state (never on timing or
// the RNG), and fronts merge in ring order.
// Bit-identical output at any worker count follows from the same
// property of the per-island runs.

// islandRun is the per-algorithm stepper the driver interleaves with
// migration: selection (which counts the generation), breeding (which
// recycles the previous union, so it must run after migration has
// decided which members stay referenced), the current best set, and the
// migration hooks — the selection pool migration reads and writes, and
// the algorithm's fitness order over it.
type islandRun interface {
	selectPhase(gen int) error
	breedPhase() error
	current() []Individual
	eng() *engine
	pool() []Individual
	better(a, b *Individual) bool
	snapshot(gen int) *Checkpoint
}

// islandSeed derives island k's RNG seed. Island 0 keeps the run seed
// (a 1-island run degenerates to the classic run); the others get
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

// runIslands executes the island model for the given algorithm. Called
// by SPEA2/NSGA2 when Params.Islands > 1.
func runIslands(algo string, p Problem, par Params) (*Result, error) {
	if err := par.normalize(); err != nil {
		return nil, err
	}
	K := par.Islands
	gen0 := 0
	var resumes []*Checkpoint
	if cp := par.Resume; cp != nil {
		if err := validateIslandResume(algo, cp, &par, p); err != nil {
			return nil, err
		}
		resumes = cp.IslandCkpts
		gen0 = cp.Generation
	}
	workers := par.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The islands run concurrently, so each gets its share of the pool;
	// the ceiling keeps every island at one worker minimum.
	perIsland := (workers + K - 1) / K

	engines := make([]*engine, K)
	for k := 0; k < K; k++ {
		kp := par
		kp.Population = popShare(par.Population, K, k)
		kp.Archive = popShare(par.Archive, K, k)
		if kp.Archive < 1 {
			kp.Archive = 1
		}
		kp.Seed = islandSeed(par.Seed, k)
		kp.Workers = perIsland
		kp.Islands = 1
		kp.Resume = nil
		if resumes != nil {
			kp.Resume = resumes[k]
		}
		// The driver owns the cross-island protocol; islands are silent.
		kp.OnProgress = nil
		kp.CheckpointEvery = 0
		kp.CheckpointFn = nil
		e, err := newEngine(p, &kp)
		if err != nil {
			return nil, err
		}
		engines[k] = e
	}

	// Initialize (or resume) every island concurrently — the initial
	// population evaluation is the expensive part.
	runs := make([]islandRun, K)
	gen0s := make([]int, K)
	initErrs := make([]error, K)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if algo == "nsga2" {
				r, g0, err := newNSGA2Run(engines[k])
				runs[k], gen0s[k], initErrs[k] = r, g0, err
			} else {
				r, g0, err := newSPEA2Run(engines[k])
				runs[k], gen0s[k], initErrs[k] = r, g0, err
			}
		}(k)
	}
	wg.Wait()

	finish := func(interrupted bool) *Result {
		res := &Result{Interrupted: interrupted}
		var all []Individual
		for k, r := range runs {
			e := engines[k]
			res.Evaluations += e.res.Evaluations
			res.DeltaEvals += e.res.DeltaEvals
			res.FullEvals += e.res.FullEvals
			if e.res.Generations > res.Generations {
				res.Generations = e.res.Generations
			}
			all = append(all, r.current()...)
		}
		res.Front = ParetoFilter(all)
		return res
	}

	if err := foldPhaseErrors(initErrs); err != nil {
		if errors.Is(err, ErrInterrupted) {
			return finish(true), nil
		}
		return nil, err
	}
	gen0 = gen0s[0] // lockstep: every island resumed at the same generation

	writeCkpt := func(gen int) error {
		ics := make([]*Checkpoint, K)
		cp := &Checkpoint{
			Algorithm:     algo,
			Seed:          par.Seed,
			NumBits:       p.NumBits(),
			Population:    par.Population,
			NumObjectives: p.NumObjectives(),
			Generation:    gen,
			Islands:       K,
			IslandCkpts:   ics,
		}
		for k, r := range runs {
			ic := r.snapshot(gen)
			ics[k] = ic
			cp.Evaluations += ic.Evaluations
			cp.DeltaEvals += ic.DeltaEvals
			cp.FullEvals += ic.FullEvals
		}
		if err := par.CheckpointFn(cp); err != nil {
			return fmt.Errorf("moea: checkpoint at generation %d: %w", gen, err)
		}
		return nil
	}

	stop := func() bool { return par.Context != nil && par.Context.Err() != nil }
	interrupted := false
	for gen := gen0; gen < par.Generations; gen++ {
		if stop() {
			interrupted = true
			if par.CheckpointFn != nil {
				if cerr := writeCkpt(gen); cerr != nil {
					return nil, cerr
				}
			}
			break
		}
		if par.CheckpointFn != nil && par.CheckpointEvery > 0 &&
			gen != gen0 && gen%par.CheckpointEvery == 0 {
			if cerr := writeCkpt(gen); cerr != nil {
				return nil, cerr
			}
		}
		if err := phaseAll(runs, func(r islandRun) error { return r.selectPhase(gen) }); err != nil {
			if errors.Is(err, ErrInterrupted) {
				interrupted = true
				break
			}
			return nil, err
		}
		if !islandHooks(gen, &par, runs, engines) || gen == par.Generations-1 {
			break
		}
		if gen > 0 && gen%par.MigrationEvery == 0 {
			migrate(runs, par.MigrationCount)
		}
		if err := phaseAll(runs, islandRun.breedPhase); err != nil {
			if errors.Is(err, ErrInterrupted) {
				interrupted = true
				break
			}
			return nil, err
		}
	}
	return finish(interrupted), nil
}

// phaseAll runs one lockstep phase on every island concurrently and
// folds the per-island errors: a panic is the root cause to surface; an
// interruption only says the run is winding down.
func phaseAll(runs []islandRun, f func(islandRun) error) error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = f(runs[k])
		}(k)
	}
	wg.Wait()
	return foldPhaseErrors(errs)
}

func foldPhaseErrors(errs []error) error {
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

// islandHooks fires the user callback with the merged cross-island
// front and the summed per-island progress counters, exactly once per
// lockstep generation.
func islandHooks(gen int, par *Params, runs []islandRun, engines []*engine) bool {
	if par.OnProgress == nil {
		return true
	}
	var all []Individual
	for _, r := range runs {
		all = append(all, r.current()...)
	}
	p := Progress{Gen: gen}
	for _, e := range engines {
		p.Evaluations += e.res.Evaluations
	}
	return par.OnProgress(p, ParetoFilter(all))
}

// migrate performs one ring migration k → (k+1) mod K: each island's
// count best pool members (by the algorithm's fitness order, index
// tiebreak) are cloned into the receiver's arena, then each receiver's
// count worst are replaced in place. Cloning everything before any
// injection keeps the exchange consistent — every migrant reflects the
// pre-migration state. The displaced victims stay referenced by the
// sender's last union, so the normal breed-phase recycle frees their
// buffers; migration itself draws no randomness and is a pure function
// of island state.
func migrate(runs []islandRun, count int) {
	K := len(runs)
	incoming := make([][]Individual, K)
	for k := 0; k < K; k++ {
		dst := (k + 1) % K
		pool := runs[k].pool()
		n := count
		if n <= 0 {
			n = len(pool) / 10
			if n < 1 {
				n = 1
			}
		}
		if n > len(pool) {
			n = len(pool)
		}
		if rp := runs[dst].pool(); n > len(rp) {
			n = len(rp)
		}
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

// validateIslandResume checks that a checkpoint belongs to the island
// run described by the parameters. The per-island sub-checkpoints are
// validated by the island engines they resume.
func validateIslandResume(algo string, cp *Checkpoint, par *Params, p Problem) error {
	switch {
	case cp.Islands == 0:
		return fmt.Errorf("%w: single-population checkpoint cannot resume an island run", ErrCheckpointMismatch)
	case cp.Islands != par.Islands:
		return fmt.Errorf("%w: checkpoint has %d islands, run has %d", ErrCheckpointMismatch, cp.Islands, par.Islands)
	case len(cp.IslandCkpts) != cp.Islands:
		return fmt.Errorf("%w: island checkpoint carries %d of %d island states", ErrCheckpointMismatch, len(cp.IslandCkpts), cp.Islands)
	case cp.Algorithm != algo:
		return fmt.Errorf("%w: checkpoint is a %s run, resuming %s", ErrCheckpointMismatch, cp.Algorithm, algo)
	case cp.Seed != par.Seed:
		return fmt.Errorf("%w: checkpoint seed %d, run seed %d", ErrCheckpointMismatch, cp.Seed, par.Seed)
	case cp.NumBits != p.NumBits():
		return fmt.Errorf("%w: checkpoint genome is %d bits, problem has %d", ErrCheckpointMismatch, cp.NumBits, p.NumBits())
	case cp.Population != par.Population:
		return fmt.Errorf("%w: checkpoint population %d, run population %d", ErrCheckpointMismatch, cp.Population, par.Population)
	case cp.Generation >= par.Generations:
		return fmt.Errorf("%w: checkpoint generation %d is beyond the %d-generation budget", ErrCheckpointMismatch, cp.Generation, par.Generations)
	}
	return nil
}
