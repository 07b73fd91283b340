package core

import (
	"math"
	"sort"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/rsn"
)

// RefineMinCost post-processes a damage-constrained solution with
// greedy 1-opt moves: hardened primitives are dropped, most expensive
// first, as long as the residual damage stays at or below the limit.
// Because the objectives are separable sums, every accepted move
// strictly improves the cost at feasible damage — the result dominates
// or equals the input. Evolutionary fronts routinely leave such slack
// on large networks (see the ablation in EXPERIMENTS.md).
func RefineMinCost(a *faults.Analysis, sol Solution, damageLimit int64) Solution {
	mask := maskOf(a, sol.Hardened)
	damage := sol.Damage
	hardened := append([]rsn.NodeID(nil), sol.Hardened...)
	sort.Slice(hardened, func(i, j int) bool {
		return a.Spec.Cost[hardened[i]] > a.Spec.Cost[hardened[j]]
	})
	for _, id := range hardened {
		if sol.CriticalCovered && a.CritHit[id] {
			continue // never trade critical coverage for cost
		}
		if damage+a.Damage[id] <= damageLimit {
			mask[id] = false
			damage += a.Damage[id]
		}
	}
	return solutionFromMask(a, mask)
}

// RefineMinDamage post-processes a cost-constrained solution: first it
// drops hardened primitives that remove no damage (pure cost), then it
// adds unhardened primitives in decreasing damage-per-cost order while
// the budget allows. The result dominates or equals the input.
func RefineMinDamage(a *faults.Analysis, sol Solution, costLimit int64) Solution {
	mask := maskOf(a, sol.Hardened)
	cost := sol.Cost
	for _, id := range sol.Hardened {
		if sol.CriticalCovered && a.CritHit[id] {
			continue // never trade critical coverage for cost
		}
		if a.Damage[id] == 0 && a.Spec.Cost[id] > 0 {
			mask[id] = false
			cost -= a.Spec.Cost[id]
		}
	}
	candidates := make([]rsn.NodeID, 0, len(a.Prims))
	for _, id := range a.Prims {
		if !mask[id] && a.Damage[id] > 0 {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		return ratio(a, candidates[i]) > ratio(a, candidates[j])
	})
	for _, id := range candidates {
		if c := a.Spec.Cost[id]; cost+c <= costLimit {
			mask[id] = true
			cost += c
		}
	}
	return solutionFromMask(a, mask)
}

func ratio(a *faults.Analysis, id rsn.NodeID) float64 {
	c := a.Spec.Cost[id]
	if c == 0 {
		return math.Inf(1)
	}
	return float64(a.Damage[id]) / float64(c)
}

// maskOf returns the hardening decision of a Hardened list indexed by
// rsn.NodeID, the form the refinements edit in place.
func maskOf(a *faults.Analysis, hardened []rsn.NodeID) []bool {
	mask := make([]bool, a.Net.NumNodes())
	for _, id := range hardened {
		mask[id] = true
	}
	return mask
}

// solutionFromMask rebuilds a Solution's bookkeeping from a mask.
func solutionFromMask(a *faults.Analysis, mask []bool) Solution {
	var hardened []rsn.NodeID
	covered := true
	for _, id := range a.Prims {
		if mask[id] {
			hardened = append(hardened, id)
		} else if a.CritHit[id] {
			covered = false
		}
	}
	return Solution{
		Hardened:        hardened,
		Cost:            a.HardeningCost(mask),
		Damage:          a.ResidualDamage(mask),
		CriticalCovered: covered,
	}
}

// RefinedMinCostWithDamageAtMost combines the front pick with the
// greedy refinement.
func (s *Synthesis) RefinedMinCostWithDamageAtMost(frac float64) (Solution, bool) {
	sol, ok := s.MinCostWithDamageAtMost(frac)
	if !ok {
		return sol, false
	}
	limit := int64(math.Floor(frac * float64(s.MaxDamage)))
	return RefineMinCost(s.Analysis, sol, limit), true
}

// RefinedMinDamageWithCostAtMost combines the front pick with the
// greedy refinement.
func (s *Synthesis) RefinedMinDamageWithCostAtMost(frac float64) (Solution, bool) {
	sol, ok := s.MinDamageWithCostAtMost(frac)
	if !ok {
		return sol, false
	}
	limit := int64(math.Floor(frac * float64(s.MaxCost)))
	return RefineMinDamage(s.Analysis, sol, limit), true
}
