package core

import (
	"math/rand"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
)

// The problem offers the executor its incremental path.
var _ moea.DeltaProblem = (*Problem)(nil)

// randomGenome fills a genome with n random bits.
func randomGenome(rng *rand.Rand, n int) moea.Genome {
	g := moea.NewGenome(n)
	for i := 0; i < n; i++ {
		g.Set(i, rng.Intn(2) == 0)
	}
	return g
}

// spliceChild mimics one-point crossover: a's prefix up to x, b's
// suffix from x.
func spliceChild(a, b moea.Genome, x, n int) moea.Genome {
	c := moea.NewGenome(n)
	c.CopyFrom(a)
	for i := x; i < n; i++ {
		c.Set(i, b.Get(i))
	}
	return c
}

// TestDeltaOracleProviders is the exactness gate of the core-layer
// incremental evaluation across every objective: for random (base,
// child) pairs — single-bit mutations, multi-bit mutations and
// crossover splices, the shapes the engine actually produces —
// EvaluateDelta must reproduce a full evaluation bit for bit on every
// objective subset, with and without the forced-critical mask.
func TestDeltaOracleProviders(t *testing.T) {
	sets := objectiveSubsets()
	nets := map[string]*rsn.Network{
		"paper":  fixture.PaperExample(),
		"nested": fixture.NestedSIBs(),
		"random": benchnets.Random(benchnets.RandomOptions{Seed: 99, TargetPrims: 80}),
	}
	for netName, net := range nets {
		a := analyzeNet(t, net)
		for _, force := range []bool{false, true} {
			for _, objs := range sets {
				p, err := NewProblemWithObjectives(a, force, objs)
				if err != nil {
					t.Fatal(err)
				}
				n := p.NumBits()
				m := p.NumObjectives()
				rng := rand.New(rand.NewSource(int64(17 + n)))
				check := func(kind string, base, child moea.Genome) {
					t.Helper()
					baseObj := make([]float64, m)
					want := make([]float64, m)
					got := make([]float64, m)
					p.Evaluate(base, baseObj)
					p.Evaluate(child, want)
					if !p.EvaluateDelta(child, base, baseObj, got) {
						t.Fatalf("%s force=%v objs=%v %s: EvaluateDelta declined a near pair", netName, force, objs, kind)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s force=%v objs=%v %s obj %d: delta %v, full %v",
								netName, force, objs, kind, k, got[k], want[k])
						}
					}
				}
				for trial := 0; trial < 50; trial++ {
					base := randomGenome(rng, n)
					// Identical pair: zero-bit delta.
					same := moea.NewGenome(n)
					same.CopyFrom(base)
					check("clone", base, same)
					// Mutation-shaped children: 1..6 random flips.
					child := moea.NewGenome(n)
					child.CopyFrom(base)
					for j := 0; j <= rng.Intn(6); j++ {
						i := rng.Intn(n)
						child.Set(i, !child.Get(i))
					}
					check("mutant", base, child)
					// Crossover-shaped child: splice against another
					// random parent, delta taken from the prefix parent.
					other := randomGenome(rng, n)
					check("splice", base, spliceChild(base, other, rng.Intn(n+1), n))
				}
			}
		}
	}
}

// TestDeltaOracleDeclines pins the fallback contract: pairs beyond the
// deltaLimit cutoff and mismatched genome lengths decline, leaving the
// caller to evaluate fully. The cutoff counts only non-forced bits.
func TestDeltaOracleDeclines(t *testing.T) {
	net := benchnets.Random(benchnets.RandomOptions{Seed: 101, TargetPrims: 400})
	a := analyzeNet(t, net)
	p, err := NewProblemWithObjectives(a, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumBits()
	if p.deltaLimit >= n {
		t.Skipf("problem too small to exceed deltaLimit (%d bits, limit %d)", n, p.deltaLimit)
	}
	base := moea.NewGenome(n)
	far := moea.NewGenome(n)
	for i := 0; i < n; i++ {
		far.Set(i, true)
	}
	out := make([]float64, 2)
	baseObj := make([]float64, 2)
	p.Evaluate(base, baseObj)
	if p.EvaluateDelta(far, base, baseObj, out) {
		t.Errorf("all-bits-differ pair (%d > limit %d) not declined", n, p.deltaLimit)
	}
	short := moea.NewGenome(n + 64)
	if p.EvaluateDelta(short, base, baseObj, out) {
		t.Error("mismatched genome lengths not declined")
	}
	// Just under the cutoff still goes incremental and stays exact.
	near := moea.NewGenome(n)
	for i := 0; i < p.deltaLimit; i++ {
		near.Set(i, true)
	}
	want := make([]float64, 2)
	p.Evaluate(near, want)
	if !p.EvaluateDelta(near, base, baseObj, out) {
		t.Fatalf("pair at the cutoff (%d bits) declined", p.deltaLimit)
	}
	if out[0] != want[0] || out[1] != want[1] {
		t.Errorf("at-cutoff delta (%v,%v), full (%v,%v)", out[0], out[1], want[0], want[1])
	}
}

// TestSynthesizeIslandWorkerDeterminism runs the full pipeline with
// islands: the result is bit-identical across worker counts, records
// the island count, and splits the evaluation accounting into delta and
// full paths that sum to the total.
func TestSynthesizeIslandWorkerDeterminism(t *testing.T) {
	run := func(workers int) *Synthesis {
		opt := DefaultOptions(30, 7)
		opt.Islands = 2
		opt.Workers = workers
		return synthesizeExample(t, opt)
	}
	ref := run(1)
	if ref.Islands != 2 {
		t.Errorf("Synthesis.Islands = %d, want 2", ref.Islands)
	}
	if len(ref.Front) == 0 {
		t.Fatal("empty merged front")
	}
	if ref.DeltaEvals+ref.FullEvals != ref.Evaluations {
		t.Errorf("delta %d + full %d != evaluations %d", ref.DeltaEvals, ref.FullEvals, ref.Evaluations)
	}
	if ref.DeltaEvals == 0 {
		t.Error("incremental path never taken on the paper example")
	}
	for _, workers := range []int{2, 4} {
		s := run(workers)
		if len(s.Front) != len(ref.Front) {
			t.Fatalf("workers=%d: front size %d != %d", workers, len(s.Front), len(ref.Front))
		}
		for i := range s.Front {
			if s.Front[i].Damage != ref.Front[i].Damage || s.Front[i].Cost != ref.Front[i].Cost {
				t.Errorf("workers=%d: front[%d] (%d,%d) != (%d,%d)", workers, i,
					s.Front[i].Damage, s.Front[i].Cost, ref.Front[i].Damage, ref.Front[i].Cost)
			}
		}
		if s.DeltaEvals != ref.DeltaEvals || s.FullEvals != ref.FullEvals {
			t.Errorf("workers=%d: delta/full (%d,%d) != (%d,%d)", workers,
				s.DeltaEvals, s.FullEvals, ref.DeltaEvals, ref.FullEvals)
		}
	}
	// A single-population run of the same seed is a different trajectory
	// — the islands knob is load-bearing, not cosmetic.
	single := synthesizeExample(t, DefaultOptions(30, 7))
	if single.Islands != 1 {
		t.Errorf("default Synthesis.Islands = %d, want 1", single.Islands)
	}
}
