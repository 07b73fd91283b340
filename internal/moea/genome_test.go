package moea

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenomeSetGetFlip(t *testing.T) {
	g := NewGenome(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if g.Get(i) {
			t.Errorf("fresh genome has bit %d set", i)
		}
		g.Set(i, true)
		if !g.Get(i) {
			t.Errorf("bit %d not set", i)
		}
		g.Flip(i)
		if g.Get(i) {
			t.Errorf("bit %d not flipped off", i)
		}
	}
	if g.Count() != 0 {
		t.Errorf("Count = %d, want 0", g.Count())
	}
	g.Set(5, true)
	g.Set(99, true)
	if g.Count() != 2 {
		t.Errorf("Count = %d, want 2", g.Count())
	}
}

func TestOnePointCrossoverExact(t *testing.T) {
	const n = 200
	a, b := NewGenome(n), NewGenome(n)
	for i := 0; i < n; i++ {
		a.Set(i, true) // a = all ones, b = all zeros
	}
	for _, point := range []int{1, 63, 64, 65, 100, 199} {
		c1, c2 := a.Clone(), b.Clone()
		crossOnePoint(c1, c2, point)
		for i := 0; i < n; i++ {
			wantC1 := i < point // c1 takes a's low bits
			if c1.Get(i) != wantC1 {
				t.Fatalf("point %d: c1 bit %d = %v, want %v", point, i, c1.Get(i), wantC1)
			}
			if c2.Get(i) != !wantC1 {
				t.Fatalf("point %d: c2 bit %d = %v, want %v", point, i, c2.Get(i), !wantC1)
			}
		}
	}
}

func TestCrossoverPreservesBitSum(t *testing.T) {
	// Property: one-point crossover never creates or destroys set bits
	// across the offspring pair.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := NewGenome(n), NewGenome(n)
		a.Randomize(rng, rng.Float64(), n)
		b.Randomize(rng, rng.Float64(), n)
		if n < 2 {
			return true
		}
		point := 1 + rng.Intn(n-1)
		c1, c2 := a.Clone(), b.Clone()
		crossOnePoint(c1, c2, point)
		return c1.Count()+c2.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateBitsRate(t *testing.T) {
	const n = 100000
	const p = 0.01
	g := NewGenome(n)
	rng := rand.New(rand.NewSource(1))
	m := newMutator(p)
	m.mutate(g, rng, n)
	flips := g.Count()
	// Expected 1000 flips; allow +-30%.
	if flips < 700 || flips > 1300 {
		t.Errorf("mutation flipped %d of %d bits at p=%v, want about %d", flips, n, p, int(n*p))
	}
}

func TestMutateBitsEdgeCases(t *testing.T) {
	g := NewGenome(64)
	rng := rand.New(rand.NewSource(2))
	none, all := newMutator(0), newMutator(1)
	none.mutate(g, rng, 64)
	if g.Count() != 0 {
		t.Error("p=0 mutated bits")
	}
	all.mutate(g, rng, 64)
	if g.Count() != 64 {
		t.Errorf("p=1 flipped %d bits, want 64", g.Count())
	}
}

func TestRandomizeDensity(t *testing.T) {
	const n = 50000
	g := NewGenome(n)
	rng := rand.New(rand.NewSource(3))
	g.Randomize(rng, 0.25, n)
	c := g.Count()
	if c < int(0.2*n) || c > int(0.3*n) {
		t.Errorf("Randomize(0.25) set %d of %d bits", c, n)
	}
	// Re-randomizing clears previous contents.
	g.Randomize(rng, 0, n)
	if g.Count() != 0 {
		t.Error("Randomize(0) left bits set")
	}
}

func TestCloneEqual(t *testing.T) {
	g := NewGenome(100)
	g.Set(3, true)
	g.Set(77, true)
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone not equal")
	}
	c.Flip(50)
	if g.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if g.Equal(NewGenome(164)) {
		t.Error("genomes of different sizes equal")
	}
}

// gapSamplerPs are the success probabilities the sampler tests cover:
// the paper's mutation rate, a 1/genome-length rate, initialization
// densities, a near-certain success, and rates so small that the
// margin swallows every draw.
var gapSamplerPs = []float64{0.01, 1.0 / 600, 0.25, 0.5, 0.999, 1e-6, 1e-9}

// refGap is the geometric variate the sampler must reproduce.
func refGap(u, logq float64) int { return int(math.Log(u) / logq) }

// TestGapSamplerMatchesLog is the sampler's oracle: for every p it
// returns int(math.Log(u)/logq) on random u (uniform as rand.Float64
// draws them, and log-uniform over the normal range) and on the 64
// floats either side of every bisected point where that integer steps.
func TestGapSamplerMatchesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, p := range gapSamplerPs {
		s := newGapSampler(p)
		check := func(u float64) {
			t.Helper()
			if got, want := s.gap(u), refGap(u, s.logq); got != want {
				t.Fatalf("p=%g u=%b (%v): gap %d, int(math.Log(u)/logq) %d", p, u, u, got, want)
			}
		}
		for i := 0; i < 100000; i++ {
			if u := rng.Float64(); u != 0 {
				check(u)
			}
			check(math.Ldexp(1+rng.Float64(), -1-rng.Intn(1022)))
		}
		// The reference falls from its value at the smallest normal to 0
		// just below 1; bisect the float bits for each step k → k-1.
		lo, hi := math.Float64bits(0x1p-1022), math.Float64bits(math.Nextafter(1, 0))
		top := refGap(0x1p-1022, s.logq)
		for _, k := range gapSteps(top, rng) {
			a, b := lo, hi // ref(a) ≥ k > ref(b)
			for b-a > 1 {
				if m := a + (b-a)/2; refGap(math.Float64frombits(m), s.logq) >= k {
					a = m
				} else {
					b = m
				}
			}
			for d := b - 64; d <= b+64; d++ {
				if d > lo && d <= hi {
					check(math.Float64frombits(d))
				}
			}
		}
	}
}

// gapSteps lists the integer steps of a reference that falls from top
// to 0: all of them up to 2000, else the first 1000, the last 100 and
// 900 drawn at random.
func gapSteps(top int, rng *rand.Rand) []int {
	if top <= 2000 {
		ks := make([]int, 0, top)
		for k := 1; k <= top; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	var ks []int
	for k := 1; k <= 1000; k++ {
		ks = append(ks, k, top-k%100)
	}
	for i := 0; i < 900; i++ {
		ks = append(ks, 1+rng.Intn(top))
	}
	return ks
}

// TestFastLogBound holds fastLog to its stated error bound against
// math.Log, over every binary exponent of the normal numbers below 1
// and the slice edges and centres of the table.
func TestFastLogBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	for e := -1022; e <= -1; e++ {
		for i := 0; i < 256; i++ {
			for _, y := range []float64{1 + float64(i)/256, 1 + (float64(i)+0.5)/256,
				math.Nextafter(1+float64(i+1)/256, 0), 1 + (float64(i)+rng.Float64())/256} {
				u := math.Ldexp(y, e)
				if d := math.Abs(fastLog(u) - math.Log(u)); d > worst {
					worst = d
				}
			}
		}
	}
	if worst >= fastLogErr {
		t.Fatalf("max |fastLog - math.Log| = %g, bound %g", worst, fastLogErr)
	}
	t.Logf("max |fastLog - math.Log| = %g (bound %g)", worst, fastLogErr)
}

// TestSamplerDrawsUnchanged holds mutation and Randomize to the
// math.Log loops they replace: same genomes and the same RNG position
// afterwards, for every probability the oracle covers.
func TestSamplerDrawsUnchanged(t *testing.T) {
	const n = 30537
	refLoop := func(rng *rand.Rand, p float64, visit func(int)) {
		logq := math.Log1p(-p)
		next := func() int {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			return refGap(u, logq)
		}
		for i := next(); i < n; i += 1 + next() {
			visit(i)
		}
	}
	for _, p := range gapSamplerPs {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := NewGenome(n), NewGenome(n)
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got.Randomize(r1, p, n)
			refLoop(r2, p, func(i int) { want.Set(i, true) })
			m := newMutator(p)
			m.mutate(got, r1, n)
			refLoop(r2, p, want.Flip)
			if !got.Equal(want) || r1.Int63() != r2.Int63() {
				t.Fatalf("p=%g seed %d: genome or RNG position differs from the math.Log loop", p, seed)
			}
		}
	}
}

// BenchmarkMutateBits times one paper-rate mutation (p = 0.01, the
// sampler built once, as an island's engine does) of a TreeFlat-sized
// genome (48 bits, about 0.5 flips) and of an MBIST_5_20_20-sized one
// (30,537 bits, about 305 flips).
func BenchmarkMutateBits(b *testing.B) {
	for _, n := range []int{48, 30537} {
		b.Run(fmt.Sprintf("bits=%d", n), func(b *testing.B) {
			g := NewGenome(n)
			rng := rand.New(rand.NewSource(1))
			m := newMutator(0.01)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.mutate(g, rng, n)
			}
		})
	}
}

// BenchmarkRandomize times one initialization of a 30,537-bit genome
// at density 0.25, the middle of the default initial densities.
func BenchmarkRandomize(b *testing.B) {
	const n = 30537
	g := NewGenome(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Randomize(rng, 0.25, n)
	}
}
