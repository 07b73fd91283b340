// Package baseline provides reference optimizers and comparators for the
// selective-hardening problem:
//
//   - a greedy damage/cost-ratio heuristic whose prefix solutions trace
//     the convex hull of the Pareto front (the objectives are separable
//     sums, so greedy-by-ratio is the fractional-knapsack relaxation);
//   - exact constrained optima via 0/1-knapsack dynamic programming over
//     the integral cost axis (tractable whenever primitives × total cost
//     is moderate), used to calibrate how close the evolutionary fronts
//     come to optimal;
//   - a random-sampling front as the sanity-check lower bar;
//   - the hardware overhead of conventional full triple-modular
//     redundancy (TMR), the paper's state-of-the-art comparator.
package baseline

import (
	"math/bits"
	"math/rand"
	"sort"

	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
)

// GreedyStep is one solution of the greedy staircase: the first
// Hardened primitives of the greedy order hardened, at the given cost
// and residual damage.
type GreedyStep struct {
	Hardened     int
	Cost, Damage int64
	// CriticalCovered reports whether the prefix hardens every
	// critical-hit primitive.
	CriticalCovered bool
}

// GreedyFront hardens primitives in decreasing damage-per-cost order and
// returns the nondominated ones among the n+1 prefix solutions (from
// nothing hardened to everything hardened), sorted by increasing cost.
// A step names its prefix by length, so the front takes O(primitives)
// memory.
func GreedyFront(a *faults.Analysis) []GreedyStep {
	order := greedyOrder(a)
	must, crit := a.MustHardenCount(), 0
	st := GreedyStep{Damage: a.TotalDamage, CriticalCovered: must == 0}
	steps := append(make([]GreedyStep, 0, len(order)+1), st)
	for _, id := range order {
		st.Hardened++
		st.Cost += a.Spec.Cost[id]
		st.Damage -= a.Damage[id]
		if a.CritHit[id] {
			crit++
		}
		st.CriticalCovered = crit == must
		steps = append(steps, st)
	}
	return dedupe(steps)
}

// greedyOrder returns the universe's primitives in decreasing
// damage-per-cost order: free primitives (cost 0) with damage first,
// zero-damage ones last, ties broken by decreasing damage, then by
// universe order.
func greedyOrder(a *faults.Analysis) []rsn.NodeID {
	order := append([]rsn.NodeID(nil), a.Prims...)
	sort.SliceStable(order, func(i, j int) bool {
		di, ci := a.Damage[order[i]], a.Spec.Cost[order[i]]
		dj, cj := a.Damage[order[j]], a.Spec.Cost[order[j]]
		// Compare di/ci > dj/cj without division: di*cj > dj*ci, in 128
		// bits — damage × cost products overflow int64 on big nets
		// (TotalDamage ~1e9 × areas ~1e10), which would flip the sort.
		// Zero costs sort as infinite ratio when damage > 0.
		hi, lo := bits.Mul64(uint64(di), uint64(cj))
		hj, lj := bits.Mul64(uint64(dj), uint64(ci))
		if hi != hj {
			return hi > hj
		}
		if lo != lj {
			return lo > lj
		}
		return di > dj
	})
	return order
}

// dedupe removes dominated prefixes from the greedy staircase. The
// input has non-decreasing cost and non-increasing damage, so a prefix
// is dominated iff a later one has the same cost (strictly less damage)
// or it fails to reduce damage over its predecessor.
func dedupe(steps []GreedyStep) []GreedyStep {
	out := steps[:0]
	for _, s := range steps {
		for len(out) > 0 && out[len(out)-1].Cost == s.Cost {
			out = out[:len(out)-1]
		}
		if len(out) > 0 && out[len(out)-1].Damage <= s.Damage {
			continue
		}
		out = append(out, s)
	}
	return out
}

// RandomFront samples random hardening masks at mixed densities and
// returns their nondominated subset — the sanity-check baseline any real
// optimizer must beat.
func RandomFront(a *faults.Analysis, seed int64, samples int) []core.Solution {
	rng := rand.New(rand.NewSource(seed))
	n := len(a.Prims)
	var pop []moea.Genome
	for s := 0; s < samples; s++ {
		g := moea.NewGenome(n)
		g.Randomize(rng, rng.Float64()*0.5, n)
		pop = append(pop, g)
	}
	var sols []core.Solution
	for _, g := range pop {
		sol := core.Solution{Hardened: make([]rsn.NodeID, 0, g.Count()), Damage: a.TotalDamage}
		for w, x := range g {
			for ; x != 0; x &= x - 1 {
				id := a.Prims[w<<6+bits.TrailingZeros64(x)]
				sol.Hardened = append(sol.Hardened, id)
				sol.Cost += a.Spec.Cost[id]
				sol.Damage -= a.Damage[id]
			}
		}
		sols = append(sols, sol)
	}
	return paretoSolutions(sols)
}

// paretoSolutions filters solutions to the nondominated subset, sorted
// by cost.
func paretoSolutions(sols []core.Solution) []core.Solution {
	var front []core.Solution
	for i := range sols {
		dominated := false
		for j := range sols {
			if i == j {
				continue
			}
			if (sols[j].Cost < sols[i].Cost && sols[j].Damage <= sols[i].Damage) ||
				(sols[j].Cost <= sols[i].Cost && sols[j].Damage < sols[i].Damage) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, sols[i])
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Cost != front[j].Cost {
			return front[i].Cost < front[j].Cost
		}
		return front[i].Damage < front[j].Damage
	})
	// Drop duplicates.
	out := front[:0]
	for i, s := range front {
		if i > 0 && s.Cost == front[i-1].Cost && s.Damage == front[i-1].Damage {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Exact computes exact constrained optima of the separable
// selective-hardening problem by 0/1-knapsack dynamic programming over
// the cost axis. Construction is O(primitives × C) in time and O(C) in
// space, where C is the cost of hardening the whole fault universe.
type Exact struct {
	a *faults.Analysis
	// removed[c] is the maximum total damage removable with hardening
	// cost at most c.
	removed []int64
}

// ExactTractable reports whether the DP fits the given operation budget
// (primitives × (universe cost + 1) <= maxOps).
func ExactTractable(a *faults.Analysis, maxOps int64) bool {
	return int64(len(a.Prims))*(a.MaxCost()+1) <= maxOps
}

// NewExact builds the DP table. Its cost axis ends at the cost of
// hardening the whole fault universe: no budget can buy more.
func NewExact(a *faults.Analysis) *Exact {
	maxCost := a.MaxCost()
	removed := make([]int64, maxCost+1)
	for _, id := range a.Prims {
		c, d := a.Spec.Cost[id], a.Damage[id]
		if d == 0 {
			continue
		}
		if c == 0 {
			// Free hardening: always taken.
			for b := int64(0); b <= maxCost; b++ {
				removed[b] += d
			}
			continue
		}
		for b := maxCost; b >= c; b-- {
			if v := removed[b-c] + d; v > removed[b] {
				removed[b] = v
			}
		}
	}
	return &Exact{a: a, removed: removed}
}

// MinDamageWithCostAtMost returns the optimal residual damage under a
// cost budget.
func (e *Exact) MinDamageWithCostAtMost(budget int64) int64 {
	if budget < 0 {
		return e.a.TotalDamage
	}
	if budget > int64(len(e.removed)-1) {
		budget = int64(len(e.removed) - 1)
	}
	return e.a.TotalDamage - e.removed[budget]
}

// MinCostWithDamageAtMost returns the minimum hardening cost that pushes
// the residual damage to at most limit; ok is false if even full
// hardening cannot (only possible for limit < 0).
func (e *Exact) MinCostWithDamageAtMost(limit int64) (cost int64, ok bool) {
	need := e.a.TotalDamage - limit
	for c := int64(0); c < int64(len(e.removed)); c++ {
		if e.removed[c] >= need {
			return c, true
		}
	}
	return 0, false
}

// TMROverhead returns the hardware overhead of protecting the entire
// network by triple modular redundancy, in the same cost units as the
// specification: every cell is triplicated (2× extra) and every
// primitive receives one voter of the given cost. This is the
// conventional fault-tolerance comparator of the paper's Section I.
func TMROverhead(a *faults.Analysis, voterCost int64) int64 {
	return 2*a.Spec.MaxCost() + voterCost*int64(len(a.Prims))
}
