package moea

import "math/rand"

// engine is the runtime of one island (one population): parameter
// normalization, the seeded RNG, diversified population initialization,
// batched objective evaluation with exact accounting, and offspring
// breeding. The algorithm files reduce to fitness assignment plus
// selection on top of it, and the generation loop (evolve) steps the
// engines of all islands.
//
// Evaluation goes through the Executor at a whole-population batch
// boundary: genomes are bred first (consuming the RNG in exactly the
// order the inline-evaluating code did — evaluation never touches the
// RNG), then evaluated together, possibly in parallel. Same seed ⇒ same
// run at any worker count.
//
// The engine also owns the per-run scratch arena that makes the steady
// state of the generation loop allocation-free: genome and objective
// buffers of individuals that die in environmental selection are
// recycled into pools the breeding loop draws from, the union buffer is
// reused across generations, and the algorithms' per-generation scratch
// (fitness, selection, sorting) lives in reusable structs. Buffer
// recycling never touches the RNG, so it cannot change a run.
type engine struct {
	prob  Problem
	par   *Params
	src   *countedSource // seeded source with a checkpointable position
	rng   *rand.Rand
	exec  *Executor
	res   *Result
	nbits int
	m     int

	// arena: pooled buffers and reusable per-generation scratch.
	genomePool []Genome
	objPool    [][]float64
	live       map[*uint64]struct{} // survivor identity during recycle
	union      []Individual
	bases      []EvalBase // per-offspring evaluation bases, parallel to dst
	sel        selScratch
	nsga       nsgaScratch
}

// grow returns buf resized to n, reallocating only when the capacity is
// exceeded. The contents are unspecified; callers that need zeroed
// memory must clear it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newEngine validates the parameters and assembles the runtime.
func newEngine(p Problem, par *Params) (*engine, error) {
	if err := par.normalize(); err != nil {
		return nil, err
	}
	src := newCountedSource(par.Seed)
	return &engine{
		prob:  p,
		par:   par,
		src:   src,
		rng:   rand.New(src),
		exec:  NewExecutor(par.Context, p, par.Workers, par.Telemetry),
		res:   &Result{},
		nbits: p.NumBits(),
		m:     p.NumObjectives(),
		live:  make(map[*uint64]struct{}),
	}, nil
}

// evaluate batch-evaluates the individuals, accounting every objective
// evaluation in Result.Evaluations — exactly the completed ones even
// when the batch is interrupted or panics — and splitting them into
// delta versus full evaluations. bases, when non-nil, is indexed like
// pop and offers each individual's breeding parent as an
// incremental-evaluation base.
func (e *engine) evaluate(pop []Individual, bases []EvalBase) error {
	n, d, err := e.exec.Evaluate(pop, bases)
	e.res.Evaluations += n
	e.res.DeltaEvals += d
	e.res.FullEvals += n - d
	return err
}

// start initializes a fresh run or restores a checkpointed one,
// returning the population and the archive (nil unless resumed from a
// SPEA-2 checkpoint).
func (e *engine) start(algo string) (pop, archive []Individual, err error) {
	if cp := e.par.Resume; cp != nil {
		if err := validateResume(algo, cp, e.par, e.nbits, e.m); err != nil {
			return nil, nil, err
		}
		e.res.Evaluations = cp.Evaluations
		e.res.DeltaEvals = cp.DeltaEvals
		e.res.FullEvals = cp.FullEvals
		e.res.Generations = cp.Generation
		e.src.skip(cp.RNGDraws)
		return restoreIndividuals(cp.Pop, e.m), restoreIndividuals(cp.Archive, e.m), nil
	}
	pop, err = e.initialPopulation()
	return pop, nil, err
}

// snapshot views the engine's current state as a checkpoint record. The
// record aliases live buffers — valid only until the engine resumes
// evolving.
func (e *engine) snapshot(algo string, gen int, pop, archive []Individual) *Checkpoint {
	return &Checkpoint{
		Algorithm:     algo,
		Seed:          e.par.Seed,
		NumBits:       e.nbits,
		Population:    e.par.Population,
		NumObjectives: e.m,
		Generation:    gen,
		RNGDraws:      e.src.draws,
		Evaluations:   e.res.Evaluations,
		DeltaEvals:    e.res.DeltaEvals,
		FullEvals:     e.res.FullEvals,
		Pop:           snapshotIndividuals(pop),
		Archive:       snapshotIndividuals(archive),
	}
}

// snapshotIndividuals views live individuals as checkpoint records. The
// records alias the live buffers — valid only while the engine is
// parked inside CheckpointFn.
func snapshotIndividuals(ins []Individual) []CheckpointIndividual {
	if len(ins) == 0 {
		return nil
	}
	out := make([]CheckpointIndividual, len(ins))
	for i := range ins {
		out[i] = CheckpointIndividual{
			Genome:  ins[i].G,
			Obj:     ins[i].Obj,
			Fitness: ins[i].fitness,
			Density: ins[i].density,
		}
	}
	return out
}

// restoreIndividuals rebuilds live individuals from checkpoint records.
// Buffers are deep-copied: the engine's arena recycles individual
// buffers into future generations, and the caller's checkpoint must
// survive the run (a test may resume from it twice).
func restoreIndividuals(ins []CheckpointIndividual, m int) []Individual {
	if len(ins) == 0 {
		return nil
	}
	out := make([]Individual, len(ins))
	for i := range ins {
		obj := make([]float64, m)
		copy(obj, ins[i].Obj)
		out[i] = Individual{
			G:       ins[i].Genome.Clone(),
			Obj:     obj,
			fitness: ins[i].Fitness,
			density: ins[i].Density,
		}
	}
	return out
}

// grabGenome returns a genome buffer from the pool, or a fresh one. The
// contents are stale; every caller fully overwrites it.
func (e *engine) grabGenome() Genome {
	if n := len(e.genomePool); n > 0 {
		g := e.genomePool[n-1]
		e.genomePool = e.genomePool[:n-1]
		return g
	}
	return NewGenome(e.nbits)
}

// grabObj returns an objective buffer from the pool, or a fresh one.
func (e *engine) grabObj() []float64 {
	if n := len(e.objPool); n > 0 {
		o := e.objPool[n-1]
		e.objPool = e.objPool[:n-1]
		return o
	}
	return make([]float64, e.m)
}

// recycle returns the genome and objective buffers of union members
// that did not survive selection to the pools. Survivors are identified
// by genome backing array, so the pools never hold a buffer an alive
// individual still references. Callers must not retain references to
// non-surviving individuals across generations (the OnProgress
// contract).
func (e *engine) recycle(union, survivors []Individual) {
	clear(e.live)
	for i := range survivors {
		if g := survivors[i].G; len(g) > 0 {
			e.live[&g[0]] = struct{}{}
		}
	}
	for i := range union {
		g := union[i].G
		if len(g) == 0 {
			continue
		}
		if _, ok := e.live[&g[0]]; ok {
			continue
		}
		e.genomePool = append(e.genomePool, g)
		if union[i].Obj != nil {
			e.objPool = append(e.objPool, union[i].Obj)
		}
		union[i] = Individual{}
	}
}

// unionInto refills the engine's reusable union buffer with the
// concatenation of the two groups.
func (e *engine) unionInto(a, b []Individual) []Individual {
	if cap(e.union) < len(a)+len(b) {
		e.union = make([]Individual, 0, 2*(len(a)+len(b)))
	}
	e.union = append(append(e.union[:0], a...), b...)
	return e.union
}

// initialPopulation builds the diversified random initial population,
// with optional seed genomes occupying the first slots.
func (e *engine) initialPopulation() ([]Individual, error) {
	par := e.par
	pop := make([]Individual, par.Population)
	i := 0
	for ; i < len(par.Seeds) && i < par.Population; i++ {
		pop[i] = Individual{G: par.Seeds[i].Clone()}
	}
	for ; i < par.Population; i++ {
		g := NewGenome(e.nbits)
		density := par.MaxInitDensity * float64(i+1) / float64(par.Population)
		g.Randomize(e.rng, density, e.nbits)
		pop[i] = Individual{G: g}
	}
	return pop, e.evaluate(pop, nil)
}

// offspring refills dst with Population children bred from pairs of
// pick() tournament winners, then batch-evaluates them, offering each
// child's closest breeding parent as its delta-evaluation base. On
// error the returned slice must still replace the caller's (the buffers
// were already consumed) but its objectives are not all valid.
func (e *engine) offspring(dst []Individual, pick func() *Individual) ([]Individual, error) {
	if cap(dst) < e.par.Population {
		dst = make([]Individual, 0, e.par.Population)
	} else {
		// vary drops the odd last child when dst is full, so the cap
		// must be exactly Population.
		dst = dst[:0:e.par.Population]
	}
	e.bases = e.bases[:0]
	for len(dst) < e.par.Population {
		dst = e.vary(dst, pick(), pick())
	}
	err := e.evaluate(dst, e.bases)
	// Drop the parent-buffer aliases: the parents may die in the next
	// selection and their buffers return to the pools.
	clear(e.bases)
	e.bases = e.bases[:0]
	return dst, err
}

// vary produces one offspring pair from two parents using the
// configured operators and appends them unevaluated to dst (respecting
// its capacity limit), recording each child's evaluation base — the
// parent it shares the most bits with, decided from the crossover
// geometry alone — in e.bases. Children are written into pooled
// buffers; the operators consume the RNG in exactly the order the
// historical clone-and-evaluate code did, because neither pooling nor
// base bookkeeping nor evaluation touches the RNG.
func (e *engine) vary(dst []Individual, pa, pb *Individual) []Individual {
	par, nbits, rng := e.par, e.nbits, e.rng
	a, b := pa.G, pb.G
	c1 := e.grabGenome()
	c2 := e.grabGenome()
	c1.CopyFrom(a)
	c2.CopyFrom(b)
	// The base is the parent contributing the majority of each child's
	// bits: for one-point at x, c1 is a[:x]+b[x:]; for two-point [x,y),
	// c1 keeps a except b's middle. Uniform mixes ~half from each, so
	// either parent works (the delta path falls back on large diffs).
	b1, b2 := pa, pb
	if nbits > 1 && rng.Float64() < par.PCrossover {
		switch par.Crossover {
		case Uniform:
			crossUniform(c1, c2, rng)
		case TwoPoint:
			x := 1 + rng.Intn(nbits-1)
			y := 1 + rng.Intn(nbits-1)
			if x > y {
				x, y = y, x
			}
			if x == y {
				y = x + 1
				if y > nbits {
					y = nbits
				}
			}
			crossTwoPoint(c1, c2, x, y, nbits)
			if 2*(y-x) > nbits {
				b1, b2 = pb, pa
			}
		default:
			point := 1 + rng.Intn(nbits-1)
			crossOnePoint(c1, c2, point)
			if 2*point < nbits {
				b1, b2 = pb, pa
			}
		}
	}
	c1.MutateBits(rng, par.PMutateBit, nbits)
	c2.MutateBits(rng, par.PMutateBit, nbits)
	dst = append(dst, Individual{G: c1, Obj: e.grabObj()})
	e.bases = append(e.bases, EvalBase{G: b1.G, Obj: b1.Obj})
	if len(dst) < cap(dst) {
		dst = append(dst, Individual{G: c2, Obj: e.grabObj()})
		e.bases = append(e.bases, EvalBase{G: b2.G, Obj: b2.Obj})
	} else {
		e.genomePool = append(e.genomePool, c2)
	}
	return dst
}
