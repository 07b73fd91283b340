package moea

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformCrossoverPreservesBitSum(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(250)
		a, b := NewGenome(n), NewGenome(n)
		a.Randomize(rng, rng.Float64(), n)
		b.Randomize(rng, rng.Float64(), n)
		c1, c2 := a.Clone(), b.Clone()
		crossUniform(c1, c2, rng)
		return c1.Count()+c2.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformCrossoverMixes(t *testing.T) {
	const n = 256
	a, b := NewGenome(n), NewGenome(n)
	for i := 0; i < n; i++ {
		a.Set(i, true)
	}
	rng := rand.New(rand.NewSource(9))
	c1, c2 := a.Clone(), b.Clone()
	crossUniform(c1, c2, rng)
	// About half the bits should come from each parent.
	if c := c1.Count(); c < n/4 || c > 3*n/4 {
		t.Errorf("uniform crossover kept %d of %d bits; expected a mix", c, n)
	}
}

func TestCrossoverKindsRunOnLOTZ(t *testing.T) {
	// Operator ablation smoke test: every crossover kind must drive the
	// optimizer to a sensible front.
	const n = 16
	for _, kind := range []CrossoverKind{OnePoint, Uniform} {
		res, err := SPEA2(lotz{n: n}, Params{
			Population: 40, Generations: 80,
			PCrossover: 0.95, Crossover: kind, PMutateBit: 1.0 / n, Seed: 6,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		onFront, distinct := lotzFrontCoverage(res, n)
		if onFront != len(res.Front) {
			t.Errorf("%v: non-optimal points on front", kind)
		}
		if distinct < (n+1)/3 {
			t.Errorf("%v: only %d of %d front points", kind, distinct, n+1)
		}
	}
}

func TestCrossoverKindString(t *testing.T) {
	if OnePoint.String() != "one-point" || Uniform.String() != "uniform" {
		t.Error("CrossoverKind names wrong")
	}
}
