package moea

import (
	"testing"
)

// lotz is the classic Leading-Ones-Trailing-Zeros bi-objective test
// problem: maximize the number of leading ones and the number of
// trailing zeros (expressed here as minimization of n-LO and n-TZ).
// Its exact Pareto front is the set {1^i 0^(n-i)} with objective
// vectors {(n-i, i)} — ideal for validating front convergence and
// spread of the optimizers.
type lotz struct{ n int }

func (p lotz) NumBits() int       { return p.n }
func (p lotz) NumObjectives() int { return 2 }
func (p lotz) Evaluate(g Genome, out []float64) {
	lo := 0
	for lo < p.n && g.Get(lo) {
		lo++
	}
	tz := 0
	for tz < p.n && !g.Get(p.n-1-tz) {
		tz++
	}
	out[0] = float64(p.n - lo)
	out[1] = float64(p.n - tz)
}

func lotzFrontCoverage(res *Result, n int) (onFront, distinct int) {
	seen := map[int]bool{}
	for _, in := range res.Front {
		lo := n - int(in.Obj[0])
		tz := n - int(in.Obj[1])
		if lo+tz == n { // exact Pareto-optimal point 1^lo 0^tz
			onFront++
			if !seen[lo] {
				seen[lo] = true
				distinct++
			}
		}
	}
	return onFront, distinct
}

func TestSPEA2OnLOTZ(t *testing.T) {
	const n = 24
	res, err := SPEA2(lotz{n: n}, Params{
		Population: 60, Generations: 250,
		PCrossover: 0.95, PMutateBit: 1.0 / n, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	onFront, distinct := lotzFrontCoverage(res, n)
	if onFront != len(res.Front) {
		t.Errorf("%d of %d front members are not Pareto-optimal", len(res.Front)-onFront, len(res.Front))
	}
	// The exact front has n+1 points; reaching the outer corners needs
	// O(n^2) lucky mutations, so demand solid but not complete coverage.
	if distinct < (n+1)/2 {
		t.Errorf("SPEA-2 covers %d of %d exact front points", distinct, n+1)
	}
}

func TestNSGA2OnLOTZ(t *testing.T) {
	const n = 24
	res, err := NSGA2(lotz{n: n}, Params{
		Population: 60, Generations: 250,
		PCrossover: 0.95, PMutateBit: 1.0 / n, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	onFront, distinct := lotzFrontCoverage(res, n)
	if onFront != len(res.Front) {
		t.Errorf("%d of %d front members are not Pareto-optimal", len(res.Front)-onFront, len(res.Front))
	}
	if distinct < (n+1)/2 {
		t.Errorf("NSGA-II covers %d of %d exact front points", distinct, n+1)
	}
}

// TestSPEA2DensityPreservesSpread checks that archive truncation keeps
// the extreme points: with an archive (the population, 8) much smaller
// than the 41-point exact front, the two corners (all-ones, all-zeros
// objectives) must survive.
func TestSPEA2DensityPreservesSpread(t *testing.T) {
	// Seed the two exact corners into the initial population: truncation
	// must never drop them, however small the archive.
	const n = 40
	ones := NewGenome(n)
	for i := 0; i < n; i++ {
		ones.Set(i, true)
	}
	res, err := SPEA2(lotz{n: n}, Params{
		Population: 8, Generations: 120,
		PCrossover: 0.95, PMutateBit: 1.0 / n, Seed: 5,
		Seeds: []Genome{NewGenome(n), ones},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hasLeft, hasRight bool
	for _, in := range res.Front {
		if in.Obj[0] == 0 {
			hasLeft = true // all leading ones
		}
		if in.Obj[1] == 0 {
			hasRight = true // all trailing zeros
		}
	}
	if !hasLeft || !hasRight {
		t.Errorf("extreme points lost by truncation: left=%v right=%v (front %d)",
			hasLeft, hasRight, len(res.Front))
	}
}
