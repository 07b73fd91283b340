// Package moea is a from-scratch multi-objective evolutionary
// optimization framework over fixed-length binary genomes. It implements
// the SPEA-2 algorithm of Zitzler, Laumanns and Thiele (TIK report 103,
// 2001) — the optimizer used by the paper via the Opt4J framework — and
// NSGA-II (Deb et al., 2002) as the classic alternative, together with
// the variation operators of the paper's Section V: one-point crossover
// and independent per-bit mutation.
//
// All algorithms are deterministic for a fixed seed and minimize every
// objective.
package moea

import (
	"math"
	"math/bits"
	"math/rand"
)

// Genome is a fixed-length bit string packed into 64-bit words. Bit i of
// a selective-hardening genome is x_i: whether primitive i is hardened.
type Genome []uint64

// NewGenome returns an all-zero genome able to hold n bits. The caller
// must remember n; Genome itself only knows its word count.
func NewGenome(n int) Genome {
	return make(Genome, (n+63)/64)
}

// Get reports bit i.
func (g Genome) Get(i int) bool { return g[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i to v.
func (g Genome) Set(i int, v bool) {
	if v {
		g[i>>6] |= 1 << uint(i&63)
	} else {
		g[i>>6] &^= 1 << uint(i&63)
	}
}

// Flip toggles bit i.
func (g Genome) Flip(i int) { g[i>>6] ^= 1 << uint(i&63) }

// Count returns the number of set bits.
func (g Genome) Count() int {
	c := 0
	for _, w := range g {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (g Genome) Clone() Genome {
	c := make(Genome, len(g))
	copy(c, g)
	return c
}

// CopyFrom overwrites g with the words of o (same word count). It is the
// allocation-free counterpart of Clone for reused genome buffers.
func (g Genome) CopyFrom(o Genome) { copy(g, o) }

// Equal reports whether two genomes have identical words.
func (g Genome) Equal(o Genome) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i] != o[i] {
			return false
		}
	}
	return true
}

// crossOnePoint is the paper's one-point crossover at bit position
// point (1 <= point < nbits), in place: it swaps the bit range
// [point, end) between the two children, so that c1 keeps its bits
// [0,point) and takes the rest from c2, and c2 vice versa. The callers
// hand in c1 == parent A, c2 == parent B.
func crossOnePoint(c1, c2 Genome, point int) {
	word := point >> 6
	// Full words after the crossover word swap wholesale.
	for w := word + 1; w < len(c1); w++ {
		c1[w], c2[w] = c2[w], c1[w]
	}
	// Mixed word: low bits [0,point&63) stay, high bits swap.
	if off := uint(point & 63); off != 0 {
		highMask := ^uint64(0) << off
		aw, bw := c1[word], c2[word]
		c1[word] = (aw &^ highMask) | (bw & highMask)
		c2[word] = (bw &^ highMask) | (aw & highMask)
	} else if word < len(c1) {
		c1[word], c2[word] = c2[word], c1[word]
	}
}

// crossUniform is the in-place uniform crossover: it exchanges every
// bit between the two children independently with probability 1/2,
// drawing one word-sized mask from rng per word.
func crossUniform(c1, c2 Genome, rng *rand.Rand) {
	for w := range c1 {
		mask := rng.Uint64()
		aw, bw := c1[w], c2[w]
		c1[w] = (aw &^ mask) | (bw & mask)
		c2[w] = (bw &^ mask) | (aw & mask)
	}
}

// mutator flips each bit of a genome independently with a fixed
// probability p, through the gap sampler for p. An island's engine
// builds one for the run's mutation rate; Randomize builds one per
// call.
type mutator struct {
	p    float64
	gaps gapSampler // read only for 0 < p < 1
}

func newMutator(p float64) mutator {
	return mutator{p: p, gaps: newGapSampler(p)}
}

// mutate flips each of the nbits bits of g independently with
// probability m.p, using geometric gap sampling so the cost is
// proportional to the number of flips rather than the genome length.
func (m *mutator) mutate(g Genome, rng *rand.Rand, nbits int) {
	if m.p <= 0 {
		return
	}
	if m.p >= 1 {
		for i := 0; i < nbits; i++ {
			g.Flip(i)
		}
		return
	}
	for i := m.gaps.nextFlip(rng); i < nbits; i += 1 + m.gaps.nextFlip(rng) {
		g.Flip(i)
	}
}

// Randomize sets each bit independently with probability density: it
// clears g and mutates it at that rate.
func (g Genome) Randomize(rng *rand.Rand, density float64, nbits int) {
	clear(g)
	m := newMutator(density)
	m.mutate(g, rng, nbits)
}

// gapSampler draws the gaps between successes of independent Bernoulli
// trials with probability p (0 < p < 1): the geometric variate
// int(math.Log(u)/logq) for a uniform u in (0, 1), logq = log(1-p).
// It returns exactly that integer for every u, yet calls math.Log only
// for the rare u whose quotient lands near an integer.
//
// The fast quotient is fastLog(u) times the rounded 1/logq. fastLog
// differs from math.Log by less than fastLogErr = 4e-13, and the two
// roundings of the fast product and the one of the reference division
// add less than 3·2⁻⁵³·|log u| ≤ 2.4e-13 (|log u| < 708.4 for a normal
// u), so the fast and the reference quotient differ by less than
// 1e-12/|logq|. When the fast one lies more than tol = gapMargin/|logq|
// from every integer, the reference lies strictly between the same two
// integers and truncates to the same one. gapMargin is 1000 times that
// difference: a draw falls back with probability about 2·tol, 2e-7 at
// the paper's p = 0.01, and tol reaches 1/2 for p below about 2e-9,
// where every draw falls back and the sampler is math.Log itself.
type gapSampler struct {
	logq float64 // log(1-p) < 0
	inv  float64 // 1/logq, rounded
	tol  float64 // gapMargin/|logq|
}

// gapMargin bounds, in log units, the distance from an integer
// boundary inside which gapSampler recomputes the quotient with
// math.Log (see gapSampler).
const gapMargin = 1e-9

func newGapSampler(p float64) gapSampler {
	logq := math.Log1p(-p)
	return gapSampler{logq: logq, inv: 1 / logq, tol: gapMargin / -logq}
}

// nextFlip draws the gap to the next success: a nonzero uniform from
// rng (redrawing zeros), then gap.
func (s *gapSampler) nextFlip(rng *rand.Rand) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return s.gap(u)
}

// gap returns int(math.Log(u)/s.logq) for u in (0, 1).
func (s *gapSampler) gap(u float64) int {
	if u >= 0x1p-1022 { // fastLog covers normal numbers only
		q := fastLog(u) * s.inv
		// q ≥ 0, so int truncates it to its floor k, and q-k is exact.
		// A q too large for an int implies tol ≥ 1/2, which no f passes.
		k := int(q)
		if f := q - float64(k); f > s.tol && f < 1-s.tol {
			return k
		}
	}
	return int(math.Log(u) / s.logq)
}

// logTable holds, for each of the 256 slices [1+i/256, 1+(i+1)/256) of
// the mantissa range [1, 2), the natural logarithm of the slice centre
// c = 1 + (i+1/2)/256 and 2⁻⁵²/c, which scales a mantissa-bit
// difference to (y-c)/c.
var logTable = func() (t [256]struct{ inv, log float64 }) {
	for i := range t {
		c := 1 + (float64(i)+0.5)/256
		t[i].inv, t[i].log = 0x1p-52/c, math.Log(c)
	}
	return t
}()

// fastLog is the natural logarithm of a positive normal float64 u < 1.
// With u = 2^e·y, y in [1, 2), and c the centre of y's logTable slice,
//
//	log u = e·ln 2 + log c + log1p(r),  r = (y-c)/c,  |r| ≤ 2⁻⁹,
//
// where y-c is exact (an integer difference of mantissa bits) and
// log1p(r) is its quartic Taylor polynomial. Error bound: truncating
// the series after r⁴ errs by less than |r|⁵/5·(1+2⁻⁸) < 6e-15; r's
// rounding, the table entry and the polynomial's arithmetic add less
// than 2e-16; e·ln 2 (|e| ≤ 1022) rounds to within 2·2⁻⁵³·708.4 <
// 1.6e-13, and the final sum to within half an ulp of 708, 5.7e-14.
// That puts fastLog within 2.2e-13 of log u, and math.Log is within
// one ulp (1.2e-13) of it: |fastLog(u) - math.Log(u)| < fastLogErr.
func fastLog(u float64) float64 {
	b := math.Float64bits(u)
	e := int(b>>52) - 1023
	t := &logTable[b>>44&0xff]
	// y-c is the low 44 mantissa bits less the slice centre's, times 2⁻⁵².
	r := float64(int64(b&(1<<44-1))-1<<43) * t.inv
	p := r * (1 + r*(-0.5+r*(1.0/3+r*-0.25)))
	return float64(e)*math.Ln2 + (t.log + p)
}

// fastLogErr bounds |fastLog(u) - math.Log(u)| (see fastLog).
const fastLogErr = 4e-13
