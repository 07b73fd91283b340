package core

import (
	"math"
	"testing"
	"testing/quick"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/spec"
)

// TestRefineNeverWorse: refinement must keep the constraint satisfied
// and never increase the optimized objective, on random networks and
// random budgets.
func TestRefineNeverWorse(t *testing.T) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 40})
		sp := spec.FromNetwork(net, spec.DefaultCostModel)
		s, err := Synthesize(net, sp, DefaultOptions(25, seed))
		if err != nil {
			t.Log(err)
			return false
		}
		for _, frac := range []float64{0.10, 0.25, 0.50} {
			if sol, ok := s.MinCostWithDamageAtMost(frac); ok {
				ref := RefineMinCost(s.Analysis, sol, int64(math.Floor(frac*float64(s.MaxDamage))))
				if ref.Cost > sol.Cost {
					t.Logf("seed %d: refine raised cost %d -> %d", seed, sol.Cost, ref.Cost)
					return false
				}
				if float64(ref.Damage) > frac*float64(s.MaxDamage) {
					t.Logf("seed %d: refine broke the damage constraint", seed)
					return false
				}
				if mask := hardenedMask(s.Analysis, ref.Hardened); s.Analysis.ResidualDamage(mask) != ref.Damage ||
					s.Analysis.HardeningCost(mask) != ref.Cost {
					t.Logf("seed %d: refined bookkeeping inconsistent", seed)
					return false
				}
			}
			if sol, ok := s.MinDamageWithCostAtMost(frac); ok {
				ref := RefineMinDamage(s.Analysis, sol, int64(math.Floor(frac*float64(s.MaxCost))))
				if ref.Damage > sol.Damage {
					t.Logf("seed %d: refine raised damage %d -> %d", seed, sol.Damage, ref.Damage)
					return false
				}
				if float64(ref.Cost) > frac*float64(s.MaxCost) {
					t.Logf("seed %d: refine broke the cost constraint", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineImprovesShortRuns: on a deliberately under-budgeted run the
// refinement should find strict improvements at least sometimes.
func TestRefineImprovesShortRuns(t *testing.T) {
	net, err := benchnets.Generate("p34392")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Synthesize(net, sp, DefaultOptions(30, 3))
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := s.MinDamageWithCostAtMost(0.10)
	if !ok {
		t.Fatal("no cost-constrained pick")
	}
	ref, ok := s.RefinedMinDamageWithCostAtMost(0.10)
	if !ok {
		t.Fatal("refined pick missing")
	}
	if ref.Damage > sol.Damage {
		t.Fatalf("refinement made the pick worse: %d -> %d", sol.Damage, ref.Damage)
	}
	t.Logf("cost<=10%% pick: damage %d -> %d after refinement", sol.Damage, ref.Damage)
}
