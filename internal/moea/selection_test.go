package moea

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSelectionMatchesReference cross-checks SPEA-2 environmental
// selection — raw fitness first, density only where the archive or the
// fill's sort reads it, truncation along the two-objective front chain —
// against the textbook order of work: F = R + D for every union member,
// then the O(n²) nearest-neighbour rescan truncation or the F-sorted
// fill (referenceSelection). The archives must agree in order,
// identity, objectives and fitness/density bits. Unions come in three
// shapes: continuous, quantized to a few levels (coordinate ties and
// exact duplicates), and front-shaped with duplicates (most members
// nondominated, so truncation runs long). Capacities sit below, at and
// above the nondominated count; each worker count reuses one scratch
// across every trial, as a run reuses it across generations. A fourth
// shape is a converged union filled underfull (see convergedUnion).
func TestSelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	scratch := map[int]*selScratch{1: {}, 3: {}}
	check := func(trial, m, shape int, union []Individual, capacity int) {
		t.Helper()
		n := len(union)
		want := referenceSelection(union, capacity)
		for _, workers := range []int{1, 3} {
			got := environmentalSelection(slices.Clone(union), capacity, m, workers, scratch[workers])
			if len(got) != len(want) {
				t.Fatalf("trial %d m=%d shape %d n=%d capacity %d workers %d: archive size %d, want %d",
					trial, m, shape, n, capacity, workers, len(got), len(want))
			}
			for p := range got {
				g, w := &got[p], &want[p]
				if g.G[0] != w.G[0] || !slices.Equal(g.Obj, w.Obj) ||
					math.Float64bits(g.fitness) != math.Float64bits(w.fitness) ||
					math.Float64bits(g.density) != math.Float64bits(w.density) {
					t.Fatalf("trial %d m=%d shape %d n=%d capacity %d workers %d: archive[%d] = #%d %v F=%v D=%v, want #%d %v F=%v D=%v",
						trial, m, shape, n, capacity, workers, p,
						g.G[0], g.Obj, g.fitness, g.density, w.G[0], w.Obj, w.fitness, w.density)
				}
			}
		}
	}
	for trial := 0; trial < 90; trial++ {
		for _, m := range []int{2, 3} {
			shape := trial % 3
			n := 4 + rng.Intn(130)
			union := make([]Individual, n)
			levels := 2 + rng.Intn(n/2+1)
			for i := range union {
				obj := make([]float64, m)
				switch shape {
				case 0:
					for k := range obj {
						obj[k] = rng.Float64() * 10
					}
				case 1:
					for k := range obj {
						obj[k] = float64(rng.Intn(5))
					}
				default:
					// A point of a fixed grid on the plane Σ obj = 1
					// (duplicates when levels < n), lifted off the front
					// for one member in five.
					rest := 1.0
					for k := 0; k < m-1; k++ {
						obj[k] = rest * float64(rng.Intn(levels)) / float64(levels)
						rest -= obj[k]
					}
					obj[m-1] = rest
					if rng.Intn(5) == 0 {
						obj[rng.Intn(m)] += 0.5 * rng.Float64()
					}
				}
				union[i] = Individual{G: Genome{uint64(i)}, Obj: obj}
			}
			nd := 0
			ranked := slices.Clone(union)
			referenceFitness(ranked)
			for _, in := range ranked {
				if in.fitness < 1 {
					nd++
				}
			}
			capacities := []int{nd, nd + 1 + rng.Intn(n)}
			if nd > 1 {
				capacities = append(capacities, 1+rng.Intn(nd-1))
			}
			for _, capacity := range capacities {
				check(trial, m, shape, union, capacity)
			}
		}
	}
	for trial := 0; trial < convergedTrials; trial++ {
		union := convergedUnion(rng)
		check(trial, 2, 3, union, len(union)/2)
	}
}

// referenceSelection is SPEA-2 environmental selection in the textbook
// order of work, the oracle of TestSelectionMatchesReference: F = R + D
// for every union member (referenceFitness); the nondominated (F < 1)
// enter in union order; an overfull archive is truncated by
// referenceTruncate, an underfull one filled with the dominated sorted
// by F.
func referenceSelection(union []Individual, capacity int) []Individual {
	u := slices.Clone(union)
	referenceFitness(u)
	var next, dominated []Individual
	for _, in := range u {
		if in.fitness < 1 {
			next = append(next, in)
		} else {
			dominated = append(dominated, in)
		}
	}
	switch {
	case len(next) > capacity:
		next = referenceTruncate(next, capacity)
	case len(next) < capacity:
		slices.SortFunc(dominated, func(a, b Individual) int {
			switch {
			case a.fitness < b.fitness:
				return -1
			case a.fitness > b.fitness:
				return 1
			}
			return 0
		})
		next = append(next, dominated[:min(capacity-len(next), len(dominated))]...)
	}
	return next
}

// referenceTruncate is truncation by full rescan: every member's
// nearest neighbour is found over the whole live set, and after each
// removal the members whose nearest neighbour was the victim rescan.
// The victim is the live member with the smallest nearest-neighbour
// distance (lowest index on ties); each objective's first minimum is
// protected when the capacity can hold them all.
func referenceTruncate(set []Individual, capacity int) []Individual {
	m := len(set[0].Obj)
	_, invRange := normalizeRanges(set, m)
	n := len(set)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	protected := make([]bool, n)
	for k := 0; k < m && capacity >= m; k++ {
		best := 0
		for i := 1; i < n; i++ {
			if set[i].Obj[k] < set[best].Obj[k] {
				best = i
			}
		}
		protected[best] = true
	}
	nn := make([]int, n)
	nnD := make([]float64, n)
	recompute := func(i int) {
		bi, bd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j != i && alive[j] {
				if d := objDist2(set[i].Obj, set[j].Obj, invRange); d < bd {
					bi, bd = j, d
				}
			}
		}
		nn[i], nnD[i] = bi, bd
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}
	for remaining := n; remaining > capacity; remaining-- {
		victim, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if alive[i] && !protected[i] && nnD[i] < best {
				victim, best = i, nnD[i]
			}
		}
		if victim < 0 {
			break
		}
		alive[victim] = false
		for i := 0; i < n; i++ {
			if alive[i] && nn[i] == victim {
				recompute(i)
			}
		}
	}
	var out []Individual
	for i := range set {
		if alive[i] {
			out = append(out, set[i])
		}
	}
	return out
}

// convergedTrials is the number of converged-underfull unions
// TestSelectionMatchesReference draws.
const convergedTrials = 40

// convergedUnion draws the union of a converged run whose archive the
// nondominated members cannot fill: 200 to 600 members on a few hundred
// integer points, each point repeated with distinct genomes. One point
// in twelve lies on a sparse front (every third step of the line
// obj0 + obj1 = levels); the rest sit one to three steps above that
// line, dominated, and mostly not by each other. The fill then needs
// fewer members than are dominated, and typically several R classes
// above the cut hold two or more distinct points, so the sort's tie
// order among equal F — which copy of a point enters the archive, and
// where — depends on every comparison outcome the fill must preserve.
func convergedUnion(rng *rand.Rand) []Individual {
	n := 200 + rng.Intn(401)
	levels := 20 + rng.Intn(40)
	pool := make([][2]float64, n/3+rng.Intn(n/3))
	for p := range pool {
		x := rng.Intn(levels + 1)
		if rng.Intn(12) == 0 {
			x -= x % 3
			pool[p] = [2]float64{float64(x), float64(levels - x)}
		} else {
			pool[p] = [2]float64{float64(x), float64(levels - x + 1 + rng.Intn(3))}
		}
	}
	union := make([]Individual, n)
	for i := range union {
		pt := pool[rng.Intn(len(pool))]
		union[i] = Individual{G: Genome{uint64(i)}, Obj: []float64{pt[0], pt[1]}}
	}
	return union
}
