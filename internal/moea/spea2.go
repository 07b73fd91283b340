package moea

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// SPEA2 runs the Strength Pareto Evolutionary Algorithm 2 of Zitzler,
// Laumanns and Thiele on the given problem:
//
//  1. fitness assignment over the union of population and archive:
//     strength S(i) = number of individuals i dominates, raw fitness
//     R(i) = sum of the strengths of i's dominators, density
//     D(i) = 1/(σ_i^k + 2) with σ_i^k the distance to the k-th nearest
//     neighbour (k = sqrt(|union|)), F(i) = R(i) + D(i);
//  2. environmental selection: all nondominated individuals (F < 1)
//     enter the next archive; an overfull archive is truncated by
//     iteratively removing the individual with the smallest
//     nearest-neighbour distance, an underfull one is filled with the
//     best dominated individuals (the density is computed only for the
//     individuals whose F selection or the archive reads);
//  3. binary-tournament mating selection on the archive, one-point
//     crossover and per-bit mutation produce the next population.
//
// Population initialization, batched (optionally parallel and
// incremental) objective evaluation, evaluation accounting and buffer
// recycling live in the shared engine runtime; the generation loop —
// checkpointing, cancellation, the OnProgress protocol and islands — is
// evolve's.
func SPEA2(p Problem, par Params) (*Result, error) { return evolve("spea2", p, par) }

// spea2Run is SPEA-2 decomposed into the two phases the generation loop
// interleaves with migration: selection (fitness over the union,
// environmental selection into the archive) and breeding (recycle the
// dead, tournament-select and vary the next population).
type spea2Run struct {
	e       *engine
	pop     []Individual
	archive []Individual
	// lastUnion is the union buffer of the last selectPhase, still
	// holding the dead individuals breedPhase must recycle.
	lastUnion []Individual
}

// start initializes or resumes the run.
func (r *spea2Run) start() (err error) {
	r.pop, r.archive, err = r.e.start("spea2")
	return err
}

// selectPhase runs fitness assignment and environmental selection for
// generation gen, leaving the new archive in place and counting the
// generation as completed. The error is always nil (SPEA-2 evaluates
// during breeding, not selection); the signature matches nsga2Run.
func (r *spea2Run) selectPhase(gen int) error {
	e := r.e
	union := e.unionInto(r.pop, r.archive)
	r.archive = environmentalSelection(union, e.par.Archive, e.m, e.exec.Workers(), &e.sel)
	r.lastUnion = union
	e.res.Generations = gen + 1
	return nil
}

// breedPhase recycles the non-survivors of the last selection and
// breeds (and evaluates) the next population from the archive.
func (r *spea2Run) breedPhase() error {
	e := r.e
	e.recycle(r.lastUnion, r.archive)
	var err error
	r.pop, err = e.offspring(r.pop, spea2Tournament(r.archive, e.par, e.rng))
	return err
}

// current is the best set to extract a front from: the archive after
// the first selection, the initial population before it.
func (r *spea2Run) current() []Individual {
	if r.archive == nil {
		return r.pop
	}
	return r.archive
}

// Migration hooks: SPEA-2 migrates through the archive, ordered by its
// fitness F (lower is better).
func (r *spea2Run) eng() *engine                 { return r.e }
func (r *spea2Run) pool() []Individual           { return r.archive }
func (r *spea2Run) better(a, b *Individual) bool { return a.fitness < b.fitness }
func (r *spea2Run) snapshot(gen int) *Checkpoint {
	return r.e.snapshot("spea2", gen, r.pop, r.archive)
}

// spea2Tournament is SPEA-2's mating selection: the best-fitness winner
// of a size-TournamentSize tournament over the archive.
func spea2Tournament(archive []Individual, par *Params, rng *rand.Rand) func() *Individual {
	return func() *Individual {
		best := rng.Intn(len(archive))
		for t := 1; t < par.TournamentSize; t++ {
			if c := rng.Intn(len(archive)); archive[c].fitness < archive[best].fitness {
				best = c
			}
		}
		return &archive[best]
	}
}

// fitScratch is the reusable per-generation scratch of the fitness
// kernels: dominance bookkeeping of the pairwise raw fitness, the
// sweep-order arrays of the two-objective fast path, and the grouping
// and grid of the two-objective density search.
type fitScratch struct {
	strength   []int
	domBy      [][]int32
	obj0, obj1 []float64
	ord        []int
	// Fenwick-sweep scratch of the two-objective strength/raw-fitness
	// computation: sorted/deduped obj1 values, y ranks, the tree itself,
	// duplicate counts and the per-individual raw fitness (also the
	// pairwise path's output).
	ys        []float64
	rank      []int
	fen       []int
	dup, rawf []int
	// dens holds the density of the members the last density call was
	// asked for, indexed like the union.
	dens []float64
	// Distinct-point grouping of the density search: group coordinates
	// and multiplicities, each member's group, and the queried groups (a
	// membership mask, the query list and each group's density). Then
	// the uniform-grid buckets of the k-NN ring search (CSR cell
	// offsets, the points of each cell, and each point's cell).
	g0, g1    []float64
	gcnt      []int
	grp       []int32
	gwant     []bool
	gq        []int32
	gdens     []float64
	cellStart []int
	cellPts   []int32
	cellIdx   []int32
	// Packed per-slot point data in cell order: coordinates and
	// multiplicity of cellPts[p], so the scan reads contiguous memory
	// instead of three indexed loads through the group arrays.
	cellD0, cellD1 []float64
	cellC          []int32
	// knn holds the k-NN heap buffer of each parallelFor chunk of the
	// density queries.
	knn [][]kEntry
}

// knnBufs returns one k-NN heap buffer, with room for k+1 entries, for
// each chunk parallelFor can split a workers-wide loop into (at most
// workers). The buffers persist across generations, each an allocation
// of its own. A chunk keeps the heap header (kSelect) on its own stack:
// the headers of concurrent chunks, written on every accepted offer,
// would share a cache line if they sat side by side in memory.
func (s *fitScratch) knnBufs(workers, k int) [][]kEntry {
	for len(s.knn) < max(workers, 1) {
		s.knn = append(s.knn, nil)
	}
	for i := range s.knn {
		if cap(s.knn[i]) < k+1 {
			s.knn[i] = make([]kEntry, 0, k+1)
		}
	}
	return s.knn
}

// domByFor returns the dominator-list array resized to n with every
// list emptied (inner capacities are retained across generations).
func (s *fitScratch) domByFor(n int) [][]int32 {
	if cap(s.domBy) < n {
		s.domBy = make([][]int32, n)
	}
	s.domBy = s.domBy[:n]
	for i := range s.domBy {
		s.domBy[i] = s.domBy[i][:0]
	}
	return s.domBy
}

// rawFitness computes the SPEA-2 raw fitness R(i) of every union
// member — the sum of the strengths of i's dominators — and returns it
// (aliasing s.rawf). Two objectives take the Fenwick sweep, leaving the
// union's (obj0, obj1) sweep order in s.ord for the density search and
// the chain truncation; other objective counts take the pairwise
// definition.
func (s *fitScratch) rawFitness(union []Individual, m int) []int {
	n := len(union)
	if m == 2 {
		s.obj0, s.obj1 = grow(s.obj0, n), grow(s.obj1, n)
		obj0, obj1 := s.obj0, s.obj1
		for i := range union {
			obj0[i] = union[i].Obj[0]
			obj1[i] = union[i].Obj[1]
		}
		// Sweep order: indices sorted lexicographically by (obj0, obj1)
		// — the x-grouped, duplicate-contiguous order of the
		// strength/raw-fitness sweep, the distinct-point grouping of the
		// density search and the front chain of truncation.
		s.ord = grow(s.ord, n)
		ord := s.ord
		for i := range ord {
			ord[i] = i
		}
		slices.SortFunc(ord, func(a, b int) int {
			switch {
			case obj0[a] < obj0[b]:
				return -1
			case obj0[a] > obj0[b]:
				return 1
			case obj1[a] < obj1[b]:
				return -1
			case obj1[a] > obj1[b]:
				return 1
			}
			return 0
		})
		return sweepFitness2(obj0, obj1, ord, s)
	}
	s.strength, s.rawf = grow(s.strength, n), grow(s.rawf, n)
	strength, rawf := s.strength, s.rawf
	clear(strength)
	domBy := s.domByFor(n) // dominators of i
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Dominates(union[i].Obj, union[j].Obj) {
				strength[i]++
				domBy[j] = append(domBy[j], int32(i))
			} else if Dominates(union[j].Obj, union[i].Obj) {
				strength[j]++
				domBy[i] = append(domBy[i], int32(j))
			}
		}
	}
	for i := range union {
		raw := 0
		for _, j := range domBy[i] {
			raw += strength[j]
		}
		rawf[i] = raw
	}
	return rawf
}

// density computes the SPEA-2 density D(i) = 1/(σ_i^k + 2) of the
// union members listed in want into s.dens (indexed like the union):
// σ_i^k is the distance to the k-th nearest neighbour among all other
// union members in range-normalized objective space, k = sqrt(|union|).
// Queries are independent and spread over the workers; the result is
// identical at any worker count and for any want that lists i. Two
// objectives take the grid search over the sweep order the preceding
// rawFitness call left.
func (s *fitScratch) density(union []Individual, want []int32, m, workers int) {
	n := len(union)
	s.dens = grow(s.dens, n)
	if m == 2 {
		s.density2(union, want, workers)
		return
	}
	dens := s.dens
	_, invRange := normalizeRanges(union, m)
	k := kNearest(n)
	bufs := s.knnBufs(workers, k)
	parallelFor(len(want), workers, func(w, lo, hi int) {
		sel := kSelect{k: k, buf: bufs[w]}
		for _, i := range want[lo:hi] {
			sel.reset()
			for j := range union {
				if j != int(i) {
					sel.offer(objDist2(union[i].Obj, union[j].Obj, invRange), 1)
				}
			}
			dens[i] = 1 / (math.Sqrt(sel.kth()) + 2)
		}
	})
}

// density2 is the two-objective density search — the hot path of the
// whole optimizer. It produces bit-identical values to the pairwise
// definition: the k-th-nearest-neighbour distance comes from a bounded
// max-heap scan (the same multiset value a full sort returns) with the
// distance arithmetic of objDist2.
func (s *fitScratch) density2(union []Individual, want []int32, workers int) {
	n := len(union)
	obj0, obj1, ord := s.obj0, s.obj1, s.ord
	inv0, inv1 := invRange2(obj0), invRange2(obj1)
	k := kNearest(n)

	// Collapse exact duplicates: converged unions concentrate onto few
	// distinct objective points, and every copy of a point has the same
	// distance multiset — the same k-th neighbour and the same density.
	// Runs of equal (obj0, obj1) are adjacent in ord; the k-NN search
	// then expands over distinct points only, offering each with its
	// multiplicity (duplicates of the query contribute exact zeros).
	s.g0, s.g1 = grow(s.g0, n), grow(s.g1, n)
	s.gcnt, s.grp = grow(s.gcnt, n), grow(s.grp, n)
	g0, g1, gcnt, grp := s.g0, s.g1, s.gcnt, s.grp
	ng := 0
	for st := 0; st < n; {
		i0 := ord[st]
		en := st + 1
		for en < n && obj0[ord[en]] == obj0[i0] && obj1[ord[en]] == obj1[i0] {
			en++
		}
		g0[ng], g1[ng], gcnt[ng] = obj0[i0], obj1[i0], en-st
		for p := st; p < en; p++ {
			grp[ord[p]] = int32(ng)
		}
		ng++
		st = en
	}

	// Query each distinct point holding a wanted member once, in sweep
	// order, so consecutive queries expand over neighbouring cells as
	// in a pass over every point.
	s.gwant, s.gdens = grow(s.gwant, ng), grow(s.gdens, ng)
	gwant, gdens := s.gwant, s.gdens
	clear(gwant)
	for _, i := range want {
		gwant[grp[i]] = true
	}
	q := s.gq[:0]
	for g, ok := range gwant {
		if ok {
			q = append(q, int32(g))
		}
	}
	s.gq = q

	// Uniform grid over the normalized objective plane, ~1 distinct
	// point per cell. A query expands Chebyshev rings of cells around
	// its own; every point of ring r is at least (r-1)/G away in
	// normalized max-norm, so once ((r-1)/G)^2 reaches the current k-th
	// distance no unvisited point can improve it. The bound is shrunk
	// by a relative 1e-9 before the comparison: cell placement and the
	// distance products round independently by a few ulps each, and
	// only skipping a candidate can corrupt the k-th value — visiting
	// one ring too many never can. The grid only orders and prunes the
	// enumeration; distances use the exact objDist2 expression, so the
	// k-th value is the same multiset statistic the pairwise loop
	// produces.
	G := 1
	for G*G < ng {
		G++
	}
	lo0, lo1 := g0[0], g1[0] // g0 ascending; g1 scanned below
	for t := 1; t < ng; t++ {
		if g1[t] < lo1 {
			lo1 = g1[t]
		}
	}
	cellOf := func(t int) (int, int) {
		cx := int((g0[t] - lo0) * inv0 * float64(G))
		cy := int((g1[t] - lo1) * inv1 * float64(G))
		if cx >= G {
			cx = G - 1
		}
		if cy >= G {
			cy = G - 1
		}
		return cx, cy
	}
	nc := G * G
	s.cellStart = grow(s.cellStart, nc+1)
	s.cellPts, s.cellIdx = grow(s.cellPts, ng), grow(s.cellIdx, ng)
	s.cellD0, s.cellD1 = grow(s.cellD0, ng), grow(s.cellD1, ng)
	s.cellC = grow(s.cellC, ng)
	cellStart, cellPts, cellIdx := s.cellStart, s.cellPts, s.cellIdx
	cellD0, cellD1, cellC := s.cellD0, s.cellD1, s.cellC
	clear(cellStart[:nc+1])
	for t := 0; t < ng; t++ {
		cx, cy := cellOf(t)
		cellIdx[t] = int32(cy*G + cx)
		cellStart[cellIdx[t]+1]++
	}
	for c := 0; c < nc; c++ {
		cellStart[c+1] += cellStart[c]
	}
	for t := 0; t < ng; t++ {
		c := cellIdx[t]
		p := cellStart[c]
		cellPts[p] = int32(t)
		cellD0[p], cellD1[p], cellC[p] = g0[t], g1[t], int32(gcnt[t])
		cellStart[c]++
	}
	for c := nc; c > 0; c-- {
		cellStart[c] = cellStart[c-1]
	}
	cellStart[0] = 0

	invG2 := 1 / float64(G*G)
	bufs := s.knnBufs(workers, k)
	parallelFor(len(q), workers, func(w, lo, hi int) {
		sel := kSelect{k: k, buf: bufs[w]}
		scan := func(t int, a0, a1 float64, c int) {
			for p := cellStart[c]; p < cellStart[c+1]; p++ {
				if int(cellPts[p]) == t {
					continue
				}
				// Same expression order as objDist2, so the squared
				// distance is bit-identical to the generic path.
				x := (a0 - cellD0[p]) * inv0
				y := (a1 - cellD1[p]) * inv1
				d := x*x + y*y
				// Duplicate of offer's warm reject test, inlined: once
				// the buffer is full most candidates fail it, and the
				// compare here skips the call entirely.
				if sel.total >= k && d >= sel.buf[0].d {
					continue
				}
				sel.offer(d, int(cellC[p]))
			}
		}
		// cellLB is the per-cell refinement of the ring bound: every
		// point of a cell (dx, dy) cell-offsets away (Chebyshev) is at
		// least sqrt(max(dx-1,0)^2+max(dy-1,0)^2)/G away, so corner
		// cells of a surviving ring become skippable up to sqrt(2)
		// earlier than the whole ring; the same 1e-9 guard covers the
		// placement rounding.
		cellLB := func(dx, dy int) float64 {
			if dx--; dx < 0 {
				dx = 0
			}
			if dy--; dy < 0 {
				dy = 0
			}
			return float64(dx*dx+dy*dy) * invG2
		}
		for _, g := range q[lo:hi] {
			t := int(g)
			a0, a1 := g0[t], g1[t]
			sel.reset()
			if c := gcnt[t] - 1; c > 0 {
				sel.offer(0, c)
			}
			cx, cy := cellOf(t)
			for r := 0; ; r++ {
				if r >= 1 && sel.total >= k {
					lb := float64(r-1) / float64(G)
					if lb*lb*(1-1e-9) >= sel.worst() {
						break
					}
				}
				if r == 0 {
					scan(t, a0, a1, cy*G+cx)
					continue
				}
				x0, x1 := cx-r, cx+r
				y0, y1 := cy-r, cy+r
				if x0 < 0 && x1 > G-1 && y0 < 0 && y1 > G-1 {
					break // ring strictly outside: so is every later one
				}
				xl, xr := max(x0, 0), min(x1, G-1)
				if y0 >= 0 {
					for x := xl; x <= xr; x++ {
						if sel.total >= k && cellLB(abs(x-cx), r)*(1-1e-9) >= sel.buf[0].d {
							continue
						}
						scan(t, a0, a1, y0*G+x)
					}
				}
				if y1 < G {
					for x := xl; x <= xr; x++ {
						if sel.total >= k && cellLB(abs(x-cx), r)*(1-1e-9) >= sel.buf[0].d {
							continue
						}
						scan(t, a0, a1, y1*G+x)
					}
				}
				yt, yb := max(y0+1, 0), min(y1-1, G-1)
				if x0 >= 0 {
					for y := yt; y <= yb; y++ {
						if sel.total >= k && cellLB(r, abs(y-cy))*(1-1e-9) >= sel.buf[0].d {
							continue
						}
						scan(t, a0, a1, y*G+x0)
					}
				}
				if x1 < G {
					for y := yt; y <= yb; y++ {
						if sel.total >= k && cellLB(r, abs(y-cy))*(1-1e-9) >= sel.buf[0].d {
							continue
						}
						scan(t, a0, a1, y*G+x1)
					}
				}
			}
			gdens[t] = 1 / (math.Sqrt(sel.kth()) + 2)
		}
	})
	for _, i := range want {
		s.dens[i] = gdens[grp[i]]
	}
}

// sweepFitness2 computes the SPEA-2 strength and raw fitness of a
// two-objective union in O(n log n): with two minimized objectives,
// "i dominates j" is exactly "i precedes j in the (≤,≤) product order
// and differs somewhere", so the strength S(i) = |{j : i dominates j}|
// and the raw fitness R(i) = Σ_{j dominates i} S(j) are orthogonal
// range counts — one Fenwick sweep over compressed obj1 ranks per
// quantity, replacing the former O(n²) pairwise pass. Every sum is an
// integer, so the results are bit-identical to the pairwise
// computation at any n. ord must hold 0..n-1 sorted lexicographically
// by (obj0, obj1), which makes equal-obj0 groups contiguous and exact
// duplicates adjacent.
//
// With D(i) = |{j≠i : obj(j) ≥ obj(i) componentwise}| (product-order
// successors, exact ties included) and dup(i) the count of exact
// duplicates of i, S(i) = D(i) − dup(i); duplicates share one S value,
// so R(i) = (Σ_{j ⪯ i} S(j)) − (dup(i)+1)·S(i), the sum running over
// all product-order predecessors including i and its ties.
func sweepFitness2(obj0, obj1 []float64, ord []int, s *fitScratch) []int {
	n := len(obj0)
	s.ys, s.rank = grow(s.ys, n), grow(s.rank, n)
	s.strength, s.dup, s.rawf = grow(s.strength, n), grow(s.dup, n), grow(s.rawf, n)
	ys, rank := s.ys, s.rank
	strength, dup, rawf := s.strength, s.dup, s.rawf
	// Compress obj1 to dense ranks 1..nr: sort a packed copy of the
	// values (no indirection, no comparator closure), dedupe in place,
	// then rank each individual by binary search.
	copy(ys, obj1[:n])
	slices.Sort(ys)
	nr := 0
	for i := 0; i < n; i++ {
		if i == 0 || ys[i] != ys[nr-1] {
			ys[nr] = ys[i]
			nr++
		}
	}
	for i := 0; i < n; i++ {
		v := obj1[i]
		lo, hi := 0, nr
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ys[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		rank[i] = lo + 1
	}
	s.fen = grow(s.fen, nr+1)
	fen := s.fen
	clear(fen)

	// Duplicate counts: exact (obj0, obj1) ties are adjacent in ord.
	for st := 0; st < n; {
		en := st + 1
		for en < n && obj0[ord[en]] == obj0[ord[st]] && obj1[ord[en]] == obj1[ord[st]] {
			en++
		}
		for p := st; p < en; p++ {
			dup[ord[p]] = en - st - 1
		}
		st = en
	}

	// Pass 1, descending obj0 groups: after inserting a group, the tree
	// holds every j with obj0(j) ≥ obj0(i), so the suffix count at
	// rank(i) is |{j : obj(j) ≥ obj(i)}| including i itself.
	inserted := 0
	for gEnd := n; gEnd > 0; {
		gStart := gEnd - 1
		for gStart > 0 && obj0[ord[gStart-1]] == obj0[ord[gEnd-1]] {
			gStart--
		}
		for p := gStart; p < gEnd; p++ {
			for r := rank[ord[p]]; r <= nr; r += r & -r {
				fen[r]++
			}
		}
		inserted += gEnd - gStart
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			below := 0
			for r := rank[i] - 1; r > 0; r -= r & -r {
				below += fen[r]
			}
			strength[i] = inserted - below - 1 - dup[i]
		}
		gEnd = gStart
	}

	// Pass 2, ascending obj0 groups: the tree accumulates strengths, so
	// the prefix sum at rank(i) is Σ S(j) over every product-order
	// predecessor of i (ties and i itself included, corrected below).
	clear(fen)
	for gStart := 0; gStart < n; {
		gEnd := gStart + 1
		for gEnd < n && obj0[ord[gEnd]] == obj0[ord[gStart]] {
			gEnd++
		}
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			for r := rank[i]; r <= nr; r += r & -r {
				fen[r] += strength[i]
			}
		}
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			leq := 0
			for r := rank[i]; r > 0; r -= r & -r {
				leq += fen[r]
			}
			rawf[i] = leq - (dup[i]+1)*strength[i]
		}
		gStart = gEnd
	}
	return rawf
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// kNearest is SPEA-2's neighbour index k = sqrt(n), at least 1.
func kNearest(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// invRange2 returns 1/(max-min) over the values (0 for a flat range),
// matching normalizeRanges for one objective.
func invRange2(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if d := hi - lo; d > 0 {
		return 1 / d
	}
	return 0
}

// kSelect tracks the k smallest values of a weighted stream with a
// small max-heap: offer(d, c) submits the value d with multiplicity c,
// rejects most values with a single compare against the root once the
// heap is warm, and kth returns the k-th smallest of the expanded
// multiset — the exact value a full sort over all copies would
// produce. Weighting is what makes the duplicate-grouped density loop
// of density2 affordable: a group of m identical points is one
// offer, not m. Warm-up (total < k) is a plain append; the buffer is
// heapified once, the moment it first fills — a Floyd heapify is O(k)
// where keeping the buffer sorted would pay an insertion per early
// accept.
type kEntry struct {
	d float64
	c int
}

type kSelect struct {
	k     int
	total int // Σc over the buffer
	buf   []kEntry
}

func newKSelect(k int) *kSelect {
	return &kSelect{k: k, buf: make([]kEntry, 0, k+1)}
}

func (s *kSelect) reset() { s.buf = s.buf[:0]; s.total = 0 }

// worst returns the current k-th-smallest upper bound (the heap
// root); valid only once total >= k (the prune guard of the density
// loop checks that first).
func (s *kSelect) worst() float64 { return s.buf[0].d }

// offer submits c copies of the value d. Entries each carry c >= 1;
// trimming keeps the heap at the minimal entry set covering the k
// smallest copies, so the k-th smallest is always the root once
// total >= k. Until the buffer reaches k copies every value is kept,
// so warm-up is a plain append — the buffer is heapified once, the
// moment it first fills, instead of paying a sift per early accept.
func (s *kSelect) offer(d float64, c int) {
	if s.total < s.k {
		s.buf = append(s.buf, kEntry{d, c})
		if s.total += c; s.total >= s.k {
			s.heapify()
		}
		return
	}
	b := s.buf
	if d >= b[0].d {
		return
	}
	if s.total-b[0].c+c >= s.k {
		// The new entry displaces the root outright (the usual case:
		// unit multiplicities keep total pinned at k): one sift-down
		// instead of a push plus a pop.
		s.total += c - b[0].c
		b[0] = kEntry{d, c}
		siftDown(b, 0)
		s.buf = s.trim(b)
		return
	}
	// The root still covers part of the k smallest: push the new entry
	// up from the bottom; nothing becomes droppable. Order among equal
	// d never changes the k-th value.
	b = append(b, kEntry{d, c})
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if b[p].d >= b[i].d {
			break
		}
		b[i], b[p] = b[p], b[i]
		i = p
	}
	s.total += c
	s.buf = b
}

// trim pops max entries that no longer contribute to the k smallest
// copies and returns the shrunk heap.
func (s *kSelect) trim(b []kEntry) []kEntry {
	for s.total-b[0].c >= s.k {
		s.total -= b[0].c
		n := len(b) - 1
		b[0] = b[n]
		b = b[:n]
		siftDown(b, 0)
	}
	return b
}

// heapify turns the warm-up buffer into a max-heap (Floyd, O(len))
// and trims it; it runs at most once per query, the first time total
// reaches k.
func (s *kSelect) heapify() {
	b := s.buf
	for i := len(b)/2 - 1; i >= 0; i-- {
		siftDown(b, i)
	}
	s.buf = s.trim(b)
}

func siftDown(b []kEntry, i int) {
	n := len(b)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && b[r].d > b[m].d {
			m = r
		}
		if b[i].d >= b[m].d {
			return
		}
		b[i], b[m] = b[m], b[i]
		i = m
	}
}

// kth returns the k-th smallest offered copy; with fewer than k copies
// it returns the largest seen (0 when empty), matching the clamped
// quickselect the implementation previously used. An underfull buffer
// is still in arrival order, so the maximum is found by scan.
func (s *kSelect) kth() float64 {
	if len(s.buf) == 0 {
		return 0
	}
	if s.total < s.k {
		m := s.buf[0].d
		for _, e := range s.buf[1:] {
			if e.d > m {
				m = e.d
			}
		}
		return m
	}
	return s.buf[0].d
}

// selScratch is the reusable scratch of environmental selection: the
// fitness kernels' scratch, the archive under construction with each
// entry's union index, the fill's R order, density request and
// dominated spill, and truncation's bookkeeping — liveness, protected
// extremes, nearest-neighbour distances, and the flat coordinates and
// chain links of the two-objective path. The returned archive aliases the next buffer; the
// engine guarantees the previous archive is dead (copied into the
// union) before the next selection runs.
type selScratch struct {
	fitScratch
	next      []Individual
	nd        []int32 // union index of each next entry
	byR       []int32 // the fill's dominated members, by R
	want      []int32 // the fill's density request
	dominated []Individual
	alive     []bool
	protected []bool
	nn        []int
	nnD       []float64
	o0, o1    []float64
	pos       []int32 // union index → next position (nondominated only)
	prev      []int32
	succ      []int32
}

// environmentalSelection assigns SPEA-2 fitness over the union and
// builds the next archive of the given capacity, computing only what
// is read afterwards. Raw fitness comes first, for every member; the
// nondominated members (R = 0, so F < 1) are the archive candidates.
// An overfull candidate set is truncated, a full one is the archive as
// is, and either way the density — the k-NN query over the whole union
// — runs only for the survivors: every other member is recycled right
// after selection, and no tournament, migration, checkpoint or hook
// reads its fitness. An underfull archive is filled with the best
// dominated members by F, and the density runs for the members whose F
// an archive entry or a comparison of the fill's sort reads (see fill).
// Two objectives swap in the Fenwick, grid and chain kernels. A nil
// scratch allocates fresh buffers.
func environmentalSelection(union []Individual, capacity, m, workers int, s *selScratch) []Individual {
	if s == nil {
		s = &selScratch{}
	}
	raw := s.rawFitness(union, m)
	nd := s.nd[:0]
	for i, r := range raw {
		if r == 0 {
			nd = append(nd, int32(i))
		}
	}
	s.nd = nd
	if len(nd) < capacity {
		return s.fill(union, capacity, m, workers)
	}
	next := s.next[:0]
	for _, i := range nd {
		next = append(next, union[i])
	}
	if len(next) > capacity {
		if m == 2 {
			s.truncateChain(next, capacity)
		} else {
			s.truncate(next, capacity, m)
		}
		j := 0
		for p := range next {
			if s.alive[p] {
				next[j], nd[j] = next[p], nd[p]
				j++
			}
		}
		next, nd = next[:j], nd[:j]
	}
	s.density(union, nd, m, workers)
	for p, i := range nd {
		next[p].density = s.dens[i]
		next[p].fitness = float64(raw[i]) + s.dens[i]
	}
	s.next = next
	return next
}

// fill is environmental selection into an archive the nondominated
// members cannot fill: the nondominated all enter, and the best
// dominated by F = R + D take the remaining places, in the order
// slices.SortFunc leaves them (its tie order is part of the result).
//
// The density runs only where F is read. A dominated R is an integer
// ≥ 1 and D lies in (0, 0.5], so fl(R+D) ≤ R+0.5 < R+1 ≤ fl(R'+D')
// for any R < R': F orders members of different R by R alone. With the
// cut at the need-th smallest dominated R, the archive takes members of
// R ≤ cut only; a member above the cut that is alone in its R class
// is compared only across classes, so F = R gives every comparison the
// sort makes the outcome F = R + D would, and the sort returns the same
// permutation. Every other member — nondominated, R ≤ cut, or sharing
// its R class above the cut — gets its density.
func (s *selScratch) fill(union []Individual, capacity, m, workers int) []Individual {
	raw := s.rawf
	byR := s.byR[:0]
	for i, r := range raw {
		if r != 0 {
			byR = append(byR, int32(i))
		}
	}
	slices.SortFunc(byR, func(a, b int32) int { return cmp.Compare(raw[a], raw[b]) })
	s.byR = byR
	need := min(capacity-len(s.nd), len(byR))
	s.dens = grow(s.dens, len(union))
	want := append(s.want[:0], s.nd...)
	// Walk the R classes: byR[need-1] holds the cut, so a class with
	// R ≤ cut starts before need; a one-member class above it is a lone
	// member, which keeps D = 0 and so F = R.
	for st := 0; st < len(byR); {
		en := st + 1
		for en < len(byR) && raw[byR[en]] == raw[byR[st]] {
			en++
		}
		if st < need || en-st > 1 {
			want = append(want, byR[st:en]...)
		} else {
			s.dens[byR[st]] = 0
		}
		st = en
	}
	s.want = want
	s.density(union, want, m, workers)
	next := s.next[:0]
	dominated := s.dominated[:0]
	for i := range union {
		union[i].density = s.dens[i]
		union[i].fitness = float64(raw[i]) + s.dens[i]
		if raw[i] == 0 {
			next = append(next, union[i])
		} else {
			dominated = append(dominated, union[i])
		}
	}
	slices.SortFunc(dominated, func(a, b Individual) int {
		switch {
		case a.fitness < b.fitness:
			return -1
		case a.fitness > b.fitness:
			return 1
		}
		return 0
	})
	next = append(next, dominated[:need]...)
	s.next = next
	clear(dominated) // drop genome references until the next generation
	s.dominated = dominated[:0]
	return next
}

// startTruncation marks every member of the set alive and protects the
// per-objective extremes (the first minimum of each objective), like
// NSGA-II's infinite boundary crowding: losing a corner of the front is
// never worth a density gain. Nothing is protected when the capacity
// cannot hold every corner. s.nnD is sized for the victim keys: a live,
// unprotected member's nearest-neighbour distance, +Inf for every other
// member, so the victim scan reads a single array.
func (s *selScratch) startTruncation(set []Individual, capacity, m int) {
	n := len(set)
	s.alive, s.protected = grow(s.alive, n), grow(s.protected, n)
	for i := range s.alive {
		s.alive[i] = true
	}
	clear(s.protected)
	for k := 0; k < m && capacity >= m; k++ {
		best := 0
		for i := 1; i < n; i++ {
			if set[i].Obj[k] < set[best].Obj[k] {
				best = i
			}
		}
		s.protected[best] = true
	}
	s.nnD = grow(s.nnD, n)
}

// victim returns the live, unprotected member with the smallest
// nearest-neighbour distance — the smallest finite key in s.nnD — the
// lowest index on ties, or -1 when only protected extremes are left.
func (s *selScratch) victim() int {
	v, best := -1, math.Inf(1)
	for i, d := range s.nnD {
		if d < best {
			v, best = i, d
		}
	}
	return v
}

// truncate marks in s.alive the members of a nondominated set that
// survive truncation to the capacity: it iteratively removes the
// member with the smallest nearest-neighbour distance in the set's
// range-normalized objective space. (SPEA-2 breaks nearest-neighbour
// ties by the next distances; with floating-point objective distances
// exact ties are rare and first-neighbour truncation preserves the
// boundary points just as well, at a fraction of the cost.)
func (s *selScratch) truncate(set []Individual, capacity, m int) {
	_, invRange := normalizeRanges(set, m)
	n := len(set)
	s.startTruncation(set, capacity, m)
	alive, protected := s.alive, s.protected
	s.nn = grow(s.nn, n)
	nn := s.nn   // index of current nearest neighbour
	nnD := s.nnD // victim key: distance to it
	recompute := func(i int) {
		bi, bd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i || !alive[j] {
				continue
			}
			if d := objDist2(set[i].Obj, set[j].Obj, invRange); d < bd {
				bi, bd = j, d
			}
		}
		if protected[i] {
			bd = math.Inf(1)
		}
		nn[i], nnD[i] = bi, bd
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}
	for remaining := n; remaining > capacity; remaining-- {
		v := s.victim()
		if v < 0 {
			break
		}
		alive[v], nnD[v] = false, math.Inf(1)
		for i := 0; i < n; i++ {
			if alive[i] && nn[i] == v {
				recompute(i)
			}
		}
	}
}

// truncateChain is truncate for two objectives, along the front chain.
// Sorted by (obj0, obj1), a mutually nondominated 2-D set has obj0
// never decreasing and obj1 never increasing, so both coordinate gaps
// grow monotonically away from a member along the chain — and, IEEE
// rounding being monotone, so does the normalized distance. A member's
// nearest live neighbour is therefore its live predecessor or
// successor: each removal recomputes only the victim's two neighbours,
// and every nearest-neighbour distance, hence the victim sequence, is
// bit-identical to truncate's full rescan. The set is the union's
// nondominated members in union order (s.nd), and the chain is the
// sweep order the preceding rawFitness call left.
func (s *selScratch) truncateChain(set []Individual, capacity int) {
	n := len(set)
	s.startTruncation(set, capacity, 2)
	alive, protected, nnD := s.alive, s.protected, s.nnD
	s.o0, s.o1 = grow(s.o0, n), grow(s.o1, n)
	o0, o1 := s.o0, s.o1
	for p := range set {
		o0[p], o1[p] = set[p].Obj[0], set[p].Obj[1]
	}
	iv0, iv1 := invRange2(o0), invRange2(o1)
	s.pos = grow(s.pos, len(s.rawf))
	for p, i := range s.nd {
		s.pos[i] = int32(p)
	}
	s.prev, s.succ = grow(s.prev, n), grow(s.succ, n)
	prev, succ := s.prev, s.succ
	last := int32(-1)
	for _, i := range s.ord {
		if s.rawf[i] != 0 {
			continue
		}
		p := s.pos[i]
		prev[p] = last
		if last >= 0 {
			succ[last] = p
		}
		last = p
	}
	succ[last] = -1
	// recompute takes the nearer live chain neighbour, with the
	// distance expression of objDist2 (0 + x² + y²).
	recompute := func(p int32) {
		bd := math.Inf(1)
		for _, q := range [2]int32{prev[p], succ[p]} {
			if q < 0 {
				continue
			}
			x := (o0[p] - o0[q]) * iv0
			y := (o1[p] - o1[q]) * iv1
			if d := x*x + y*y; d < bd {
				bd = d
			}
		}
		if protected[p] {
			bd = math.Inf(1)
		}
		nnD[p] = bd
	}
	for p := range set {
		recompute(int32(p))
	}
	for remaining := n; remaining > capacity; remaining-- {
		v := s.victim()
		if v < 0 {
			break
		}
		alive[v], nnD[v] = false, math.Inf(1)
		a, b := prev[v], succ[v]
		if a >= 0 {
			succ[a] = b
			recompute(a)
		}
		if b >= 0 {
			prev[b] = a
			recompute(b)
		}
	}
}
