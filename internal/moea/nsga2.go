package moea

import (
	"math"
	"slices"
)

// NSGA2 runs the elitist nondominated-sorting genetic algorithm of Deb,
// Pratap, Agarwal and Meyarivan (2002), the alternative multi-objective
// optimizer cited by the paper. Selection uses fast nondominated sorting
// and crowding distance; variation uses the same one-point crossover and
// per-bit mutation operators as SPEA2. Initialization, batched
// evaluation and buffer recycling come from the shared engine runtime,
// the generation loop from evolve.
func NSGA2(p Problem, par Params) (*Result, error) { return evolve("nsga2", p, par) }

// nsga2Run is NSGA-II decomposed into the two phases the generation
// loop interleaves with migration. NSGA-II breeds at the top of a
// generation (from the ranked population of the previous one), so its
// selection phase covers breeding, the nondominated sort and the
// crowded truncation; the breed phase is only the buffer recycle that
// must wait until migration has decided which union members stay
// referenced.
type nsga2Run struct {
	e   *engine
	pop []Individual
	off []Individual
	// lastUnion is the union buffer of the last selectPhase, still
	// holding the dead individuals breedPhase must recycle.
	lastUnion []Individual
}

// start initializes or resumes the run; a fresh population is ranked
// for the first tournament.
func (r *nsga2Run) start() error {
	e := r.e
	pop, _, err := e.start("nsga2")
	r.pop = pop
	if err == nil && e.par.Resume == nil {
		rankAndCrowd(pop, e.m, &e.nsga)
	}
	return err
}

// selectPhase breeds and evaluates the offspring of generation gen,
// sorts the union and rebuilds the population by rank and crowding,
// counting the generation as completed. On an interrupted evaluation
// the previous population is left intact (the partial result).
func (r *nsga2Run) selectPhase(gen int) error {
	e := r.e
	var err error
	r.off, err = e.offspring(r.off, r)
	if err != nil {
		return err
	}
	union := e.unionInto(r.pop, r.off)
	fronts := nondominatedSort(union, &e.nsga)
	pop := r.pop[:0]
	for _, f := range fronts {
		crowdingDistance(union, f, e.m, &e.nsga)
		if len(pop)+len(f) <= e.par.Population {
			for _, i := range f {
				pop = append(pop, union[i])
			}
			continue
		}
		rest := e.par.Population - len(pop)
		slices.SortFunc(f, func(a, b int) int {
			switch {
			case union[a].density > union[b].density:
				return -1
			case union[a].density < union[b].density:
				return 1
			}
			return 0
		})
		for _, i := range f[:rest] {
			pop = append(pop, union[i])
		}
		break
	}
	r.pop = pop
	r.lastUnion = union
	e.res.Generations = gen + 1
	return nil
}

// breedPhase recycles the non-survivors of the last selection; the
// actual breeding happens at the top of the next selectPhase.
func (r *nsga2Run) breedPhase() error {
	r.e.recycle(r.lastUnion, r.pop)
	return nil
}

// current is the set to extract a front from.
func (r *nsga2Run) current() []Individual { return r.pop }

// Mating selection and migration hooks: NSGA-II selects parents from,
// and migrates through, the population, ordered by the crowded
// comparison (rank, then crowding distance).
func (r *nsga2Run) eng() *engine                 { return r.e }
func (r *nsga2Run) pool() []Individual           { return r.pop }
func (r *nsga2Run) better(a, b *Individual) bool { return crowdedLess(a, b) }
func (r *nsga2Run) snapshot(gen int) *Checkpoint {
	return r.e.snapshot("nsga2", gen, r.pop, nil)
}

// crowdedLess implements the crowded-comparison operator: lower rank
// wins; equal ranks prefer the larger crowding distance.
func crowdedLess(a, b *Individual) bool {
	if a.fitness != b.fitness {
		return a.fitness < b.fitness
	}
	return a.density > b.density
}

// nsgaScratch is the reusable per-generation scratch of the
// nondominated sort and crowding computation. The inner front buffers
// (bufs) persist across generations; fronts re-slices over them.
type nsgaScratch struct {
	domCount  []int
	dominates [][]int32
	fronts    [][]int
	bufs      [][]int
	idx       []int
}

// frontBuf returns the k-th reusable front buffer, emptied.
func (s *nsgaScratch) frontBuf(k int) []int {
	for len(s.bufs) <= k {
		s.bufs = append(s.bufs, nil)
	}
	return s.bufs[k][:0]
}

// rankAndCrowd assigns ranks (fitness) and crowding distances (density)
// to an initial population.
func rankAndCrowd(pop []Individual, m int, s *nsgaScratch) {
	fronts := nondominatedSort(pop, s)
	for _, f := range fronts {
		crowdingDistance(pop, f, m, s)
	}
}

// nondominatedSort partitions indices into fronts F1, F2, ... and stores
// the rank in each individual's fitness field. The returned fronts are
// valid until the next call with the same scratch; a nil scratch
// allocates fresh buffers.
func nondominatedSort(pop []Individual, s *nsgaScratch) [][]int {
	if s == nil {
		s = &nsgaScratch{}
	}
	n := len(pop)
	s.domCount = grow(s.domCount, n)
	domCount := s.domCount
	clear(domCount)
	if cap(s.dominates) < n {
		s.dominates = make([][]int32, n)
	}
	s.dominates = s.dominates[:n]
	dominates := s.dominates
	for i := range dominates {
		dominates[i] = dominates[i][:0]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Dominates(pop[i].Obj, pop[j].Obj) {
				dominates[i] = append(dominates[i], int32(j))
				domCount[j]++
			} else if Dominates(pop[j].Obj, pop[i].Obj) {
				dominates[j] = append(dominates[j], int32(i))
				domCount[i]++
			}
		}
	}
	fronts := s.fronts[:0]
	cur := s.frontBuf(0)
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			cur = append(cur, i)
			pop[i].fitness = 0
		}
	}
	for rank := 1; len(cur) > 0; rank++ {
		k := len(fronts)
		s.bufs[k] = cur // keep the (possibly grown) backing for reuse
		fronts = append(fronts, cur)
		next := s.frontBuf(k + 1)
		for _, i := range cur {
			for _, j := range dominates[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, int(j))
					pop[j].fitness = float64(rank)
				}
			}
		}
		cur = next
	}
	s.bufs[len(fronts)] = cur
	s.fronts = fronts
	return fronts
}

// crowdingDistance stores each front member's crowding distance in its
// density field. A nil scratch allocates a fresh index buffer.
func crowdingDistance(pop []Individual, front []int, m int, s *nsgaScratch) {
	for _, i := range front {
		pop[i].density = 0
	}
	if len(front) <= 2 {
		for _, i := range front {
			pop[i].density = math.Inf(1)
		}
		return
	}
	var idx []int
	if s == nil {
		idx = make([]int, len(front))
	} else {
		s.idx = grow(s.idx, len(front))
		idx = s.idx
	}
	for k := 0; k < m; k++ {
		copy(idx, front)
		slices.SortFunc(idx, func(a, b int) int {
			switch {
			case pop[a].Obj[k] < pop[b].Obj[k]:
				return -1
			case pop[a].Obj[k] > pop[b].Obj[k]:
				return 1
			}
			return 0
		})
		lo := pop[idx[0]].Obj[k]
		hi := pop[idx[len(idx)-1]].Obj[k]
		pop[idx[0]].density = math.Inf(1)
		pop[idx[len(idx)-1]].density = math.Inf(1)
		if hi == lo {
			continue
		}
		for t := 1; t < len(idx)-1; t++ {
			pop[idx[t]].density += (pop[idx[t+1]].Obj[k] - pop[idx[t-1]].Obj[k]) / (hi - lo)
		}
	}
}
