package moea

import (
	"math"
	"slices"
)

// Dominates reports whether objective vector a Pareto-dominates b: a is
// no worse in every objective and strictly better in at least one
// (all objectives minimized).
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		switch {
		case a[i] < b[i]:
			better = true
		case a[i] > b[i]:
			return false
		}
	}
	return better
}

// ParetoFilter returns the nondominated subset of individuals, sorted by
// the first objective, with duplicate objective vectors removed. Two
// objectives take an O(n log n) sweep (paretoFilter2); other objective
// counts take the pairwise scan.
func ParetoFilter(pop []Individual) []Individual {
	if len(pop) > 0 && len(pop[0].Obj) == 2 {
		return paretoFilter2(pop)
	}
	var front []Individual
	for i := range pop {
		dominated := false
		for j := range pop {
			if i != j && Dominates(pop[j].Obj, pop[i].Obj) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, pop[i])
		}
	}
	sortByObjectives(front)
	return dedupeByObjectives(front)
}

// paretoFilter2 is ParetoFilter for two objectives. In (obj0, obj1)
// order a member is dominated exactly when an earlier obj0 group's
// minimum obj1 is at or below its own, or its own group's minimum obj1
// is below it. The kept members are collected back in input order, so
// the sort and dedupe see the sequence the pairwise scan hands them and
// keep the same copy of each duplicate. One index slice serves as the
// sweep order and then, compacted in place, as the kept list.
func paretoFilter2(pop []Individual) []Individual {
	ord := make([]int32, len(pop))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		x, y := pop[a].Obj, pop[b].Obj
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		case x[1] < y[1]:
			return -1
		case x[1] > y[1]:
			return 1
		}
		return 0
	})
	kept := ord[:0]
	prevMin := math.Inf(1) // minimum obj1 over the earlier obj0 groups
	for st := 0; st < len(ord); {
		x0, groupMin := pop[ord[st]].Obj[0], pop[ord[st]].Obj[1]
		en := st + 1
		for en < len(ord) && pop[ord[en]].Obj[0] == x0 {
			en++
		}
		for _, i := range ord[st:en] { // kept never overtakes the read position
			y := pop[i].Obj[1]
			if dominated := (st > 0 && prevMin <= y) || groupMin < y; !dominated {
				kept = append(kept, i)
			}
		}
		prevMin = min(prevMin, groupMin)
		st = en
	}
	slices.Sort(kept)
	front := make([]Individual, len(kept))
	for q, i := range kept {
		front[q] = pop[i]
	}
	sortByObjectives(front)
	return dedupeByObjectives(front)
}

func sortByObjectives(front []Individual) {
	slices.SortFunc(front, func(x, y Individual) int {
		a, b := x.Obj, y.Obj
		for k := range a {
			if a[k] != b[k] {
				if a[k] < b[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
}

func dedupeByObjectives(front []Individual) []Individual {
	out := front[:0]
	for i := range front {
		if i > 0 && equalObjectives(front[i].Obj, front[i-1].Obj) {
			continue
		}
		out = append(out, front[i])
	}
	return out
}

func equalObjectives(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hypervolume computes the dominated hypervolume of a front with
// respect to the reference point ref, one coordinate per objective (all
// objectives minimized; points not strictly dominating ref are
// ignored). It is the standard quality indicator used to compare the
// optimizers. Two objectives use the classic O(n log n) sweep; higher
// dimensions fall back to exact hypervolume-by-slicing-objectives
// recursion, whose cost grows steeply with the dimension — fine for the
// K ≤ 4 fronts this engine targets.
func Hypervolume(front []Individual, ref []float64) float64 {
	m := len(ref)
	if m == 0 {
		return 0
	}
	pts := make([][]float64, 0, len(front))
	for i := range front {
		p := front[i].Obj
		inside := len(p) >= m
		for k := 0; k < m && inside; k++ {
			inside = p[k] < ref[k]
		}
		if inside {
			pts = append(pts, p[:m])
		}
	}
	if len(pts) == 0 {
		return 0
	}
	switch m {
	case 1:
		best := pts[0][0]
		for _, p := range pts[1:] {
			if p[0] < best {
				best = p[0]
			}
		}
		return ref[0] - best
	case 2:
		return hypervolume2(pts, ref)
	default:
		return hvSlice(pts, ref)
	}
}

// hypervolume2 is the two-objective sweep: points sorted by the first
// objective, each contributing the rectangle between itself, the best
// second objective seen so far, and the reference corner. Every point
// strictly dominates ref.
func hypervolume2(pts [][]float64, ref []float64) float64 {
	slices.SortFunc(pts, func(a, b []float64) int {
		if a[0] != b[0] {
			if a[0] < b[0] {
				return -1
			}
			return 1
		}
		switch {
		case a[1] < b[1]:
			return -1
		case a[1] > b[1]:
			return 1
		}
		return 0
	})
	hv := 0.0
	bestY := math.Inf(1)
	for _, p := range pts {
		if p[1] < bestY {
			hv += (ref[0] - p[0]) * (minf(bestY, ref[1]) - p[1])
			bestY = p[1]
		}
	}
	return hv
}

// hvSlice implements hypervolume by slicing objectives (HSO): sort the
// points ascending on the last objective, sweep the slabs between
// consecutive coordinates, and weight each slab's height by the
// (m-1)-dimensional hypervolume of the points at or below its floor.
// Dominated points in a slab are harmless — the recursive volume is a
// union of boxes, so they simply add nothing. Both hypervolume2 and
// this function reorder pts in place; callers pass scratch slices.
func hvSlice(pts [][]float64, ref []float64) float64 {
	m := len(ref)
	if m == 2 {
		return hypervolume2(pts, ref)
	}
	slices.SortFunc(pts, func(a, b []float64) int {
		switch {
		case a[m-1] < b[m-1]:
			return -1
		case a[m-1] > b[m-1]:
			return 1
		}
		return 0
	})
	hv := 0.0
	proj := make([][]float64, 0, len(pts))
	for i := range pts {
		proj = append(proj, pts[i][:m-1])
		lo := pts[i][m-1]
		hi := ref[m-1]
		if i+1 < len(pts) {
			hi = pts[i+1][m-1]
		}
		if hi > lo {
			hv += (hi - lo) * hvSlice(proj, ref[:m-1])
		}
	}
	return hv
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// normalizeRanges returns per-objective (min, 1/range) pairs over the
// union, used to compute scale-free distances in objective space.
func normalizeRanges(pop []Individual, m int) (lo, invRange []float64) {
	lo = make([]float64, m)
	hi := make([]float64, m)
	for k := 0; k < m; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for i := range pop {
		for k := 0; k < m; k++ {
			v := pop[i].Obj[k]
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	invRange = make([]float64, m)
	for k := 0; k < m; k++ {
		if d := hi[k] - lo[k]; d > 0 {
			invRange[k] = 1 / d
		}
	}
	return lo, invRange
}

// objDist2 is the squared normalized Euclidean distance between two
// objective vectors.
func objDist2(a, b []float64, invRange []float64) float64 {
	d := 0.0
	for k := range a {
		x := (a[k] - b[k]) * invRange[k]
		d += x * x
	}
	return d
}
