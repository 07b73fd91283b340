package moea

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// knapsackProblem is a tiny separable bi-objective problem mirroring the
// selective-hardening structure: minimizing residual value vs. cost.
type knapsackProblem struct {
	value []int64
	cost  []int64
	total int64
}

func newKnapsack(seed int64, n int) *knapsackProblem {
	rng := rand.New(rand.NewSource(seed))
	p := &knapsackProblem{value: make([]int64, n), cost: make([]int64, n)}
	for i := 0; i < n; i++ {
		p.value[i] = 1 + rng.Int63n(100)
		p.cost[i] = 1 + rng.Int63n(20)
		p.total += p.value[i]
	}
	return p
}

func (p *knapsackProblem) NumBits() int       { return len(p.value) }
func (p *knapsackProblem) NumObjectives() int { return 2 }
func (p *knapsackProblem) Evaluate(g Genome, out []float64) {
	var v, c int64
	for i := 0; i < len(p.value); i++ {
		if g.Get(i) {
			v += p.value[i]
			c += p.cost[i]
		}
	}
	out[0] = float64(p.total - v)
	out[1] = float64(c)
}

// frontFingerprint renders a front's genomes and objectives into a
// comparable string.
func frontFingerprint(front []Individual) string {
	s := ""
	for _, in := range front {
		s += fmt.Sprintf("%x|%v;", in.G, in.Obj)
	}
	return s
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 2}, []float64{1, 3}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestParetoFilter(t *testing.T) {
	pop := []Individual{
		{Obj: []float64{1, 5}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{5, 1}},
		{Obj: []float64{3, 3}}, // dominated by (2,2)
		{Obj: []float64{2, 2}}, // duplicate
	}
	front := ParetoFilter(pop)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Obj[0] < front[i-1].Obj[0] {
			t.Error("front not sorted by first objective")
		}
	}
}

// TestParetoFilterMatchesPairwise holds the two-objective sweep of
// ParetoFilter to the pairwise scan (referenceParetoFilter): the same
// members in the same order, and the same surviving copy of each
// duplicated objective vector, told apart by genome. Sets come in four
// shapes — continuous, quantized (coordinate ties), drawn from a few
// points (duplicate-heavy) and front-shaped with duplicates — at sizes
// up to 700. Three objectives must keep the pairwise path: a 2-D sweep
// would drop (2, 2, 1), which (1, 1, 5) does not dominate.
func TestParetoFilterMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		shape := trial % 4
		n := 1 + rng.Intn(700)
		levels := 2 + rng.Intn(40)
		pool := make([][2]float64, 1+rng.Intn(12))
		for i := range pool {
			pool[i] = [2]float64{float64(rng.Intn(20)), float64(rng.Intn(20))}
		}
		pop := make([]Individual, n)
		for i := range pop {
			var obj []float64
			switch shape {
			case 0:
				obj = []float64{rng.Float64() * 100, rng.Float64() * 100}
			case 1:
				obj = []float64{float64(rng.Intn(levels)), float64(rng.Intn(levels))}
			case 2:
				p := pool[rng.Intn(len(pool))]
				obj = []float64{p[0], p[1]}
			default:
				x := float64(rng.Intn(levels))
				obj = []float64{x, float64(levels) - x}
				if rng.Intn(4) == 0 {
					obj[rng.Intn(2)] += float64(1 + rng.Intn(3))
				}
			}
			pop[i] = Individual{G: Genome{uint64(i)}, Obj: obj}
		}
		checkParetoFilter(t, pop)
	}
	three := []Individual{
		{G: Genome{0}, Obj: []float64{1, 1, 5}},
		{G: Genome{1}, Obj: []float64{2, 2, 1}},
		{G: Genome{2}, Obj: []float64{2, 2, 2}},
	}
	if front := ParetoFilter(three); len(front) != 2 || front[1].G[0] != 1 {
		t.Fatalf("three objectives: front %v, want #0 and #1", front)
	}
	for trial := 0; trial < 20; trial++ {
		pop := make([]Individual, 1+rng.Intn(200))
		for i := range pop {
			pop[i] = Individual{G: Genome{uint64(i)}, Obj: []float64{
				float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}}
		}
		checkParetoFilter(t, pop)
	}
}

// checkParetoFilter fails the test unless ParetoFilter returns exactly
// the pairwise reference's members, in order, identified by genome.
func checkParetoFilter(t testing.TB, pop []Individual) {
	t.Helper()
	got, want := ParetoFilter(pop), referenceParetoFilter(pop)
	if len(got) != len(want) {
		t.Fatalf("n=%d: front size %d, want %d", len(pop), len(got), len(want))
	}
	for p := range got {
		if got[p].G[0] != want[p].G[0] || !slices.Equal(got[p].Obj, want[p].Obj) {
			t.Fatalf("n=%d: front[%d] = #%d %v, want #%d %v",
				len(pop), p, got[p].G[0], got[p].Obj, want[p].G[0], want[p].Obj)
		}
	}
}

// referenceParetoFilter is the pairwise nondominated filter: every
// member is tested against every other, the survivors are kept in input
// order, then sorted and deduplicated as ParetoFilter does.
func referenceParetoFilter(pop []Individual) []Individual {
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

func TestHypervolume(t *testing.T) {
	front := []Individual{
		{Obj: []float64{1, 3}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{3, 1}},
	}
	// ref (4,4): boxes: (4-1)*(4-3)=3, (4-2)*(3-2)=2, (4-3)*(2-1)=1.
	if got := Hypervolume(front, []float64{4, 4}); got != 6 {
		t.Errorf("Hypervolume = %v, want 6", got)
	}
	if got := Hypervolume(nil, []float64{4, 4}); got != 0 {
		t.Errorf("empty Hypervolume = %v, want 0", got)
	}
	// Points outside the reference box are ignored.
	if got := Hypervolume([]Individual{{Obj: []float64{5, 5}}}, []float64{4, 4}); got != 0 {
		t.Errorf("out-of-box Hypervolume = %v, want 0", got)
	}
}

func TestKSelect(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for k := 1; k <= 5; k++ {
		sel := newKSelect(k)
		for _, x := range v {
			sel.offer(x, 1)
		}
		if got := sel.kth(); got != float64(k) {
			t.Errorf("kSelect(k=%d).kth() = %v, want %v", k, got, float64(k))
		}
	}
	// Fewer than k copies: the largest seen, matching the clamped
	// quickselect it replaced. Empty: 0.
	sel := newKSelect(10)
	sel.offer(2, 1)
	sel.offer(7, 1)
	if got := sel.kth(); got != 7 {
		t.Errorf("underfull kth() = %v, want 7", got)
	}
	sel.reset()
	if got := sel.kth(); got != 0 {
		t.Errorf("empty kth() = %v, want 0", got)
	}
	// Randomized cross-check against a full sort, with multiplicities:
	// offering (d, c) must select exactly like c copies of d.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		var vals []float64
		type wv struct {
			d float64
			c int
		}
		offers := make([]wv, n)
		for i := range offers {
			d := rng.Float64()
			if trial%3 == 0 {
				d = float64(rng.Intn(5)) // force ties across offers
			}
			c := 1
			if trial%2 == 1 {
				c = 1 + rng.Intn(4)
			}
			offers[i] = wv{d, c}
			for j := 0; j < c; j++ {
				vals = append(vals, d)
			}
		}
		k := 1 + rng.Intn(len(vals))
		sel := newKSelect(k)
		for _, o := range offers {
			sel.offer(o.d, o.c)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if got := sel.kth(); got != sorted[k-1] {
			t.Fatalf("trial %d: kth(k=%d,copies=%d) = %v, want %v", trial, k, len(vals), got, sorted[k-1])
		}
	}
}

// frontQuality measures how close a front comes to the exact Pareto
// front of the separable problem (computed greedily on the convex hull).
func exactExtremes(p *knapsackProblem) (allValue, zero float64) {
	return float64(p.total), 0
}

func runBoth(t *testing.T, p Problem, par Params) (s, n *Result) {
	t.Helper()
	s, err := SPEA2(p, par)
	if err != nil {
		t.Fatalf("SPEA2: %v", err)
	}
	n, err = NSGA2(p, par)
	if err != nil {
		t.Fatalf("NSGA2: %v", err)
	}
	return s, n
}

func TestOptimizersFindExtremes(t *testing.T) {
	p := newKnapsack(11, 40)
	par := Params{Population: 60, Generations: 120, PCrossover: 0.95, PMutateBit: 0.02, Seed: 1}
	for name, run := range map[string]func() (*Result, error){
		"spea2": func() (*Result, error) { return SPEA2(p, par) },
		"nsga2": func() (*Result, error) { return NSGA2(p, par) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("%s: empty front", name)
		}
		// The all-zero solution (cost 0, full residual) is trivially
		// Pareto-optimal and easy to find; the front must include a
		// zero-cost point and a near-zero-damage point.
		minCost, minDamage := math.Inf(1), math.Inf(1)
		for _, in := range res.Front {
			minDamage = math.Min(minDamage, in.Obj[0])
			minCost = math.Min(minCost, in.Obj[1])
		}
		if minCost != 0 {
			t.Errorf("%s: no zero-cost solution on front (min cost %v)", name, minCost)
		}
		total, _ := exactExtremes(p)
		if minDamage > 0.05*total {
			t.Errorf("%s: best residual %v exceeds 5%% of total %v", name, minDamage, total)
		}
	}
}

func TestFrontIsMutuallyNondominated(t *testing.T) {
	p := newKnapsack(13, 30)
	par := Params{Population: 40, Generations: 40, PCrossover: 0.95, PMutateBit: 0.01, Seed: 2}
	s, n := runBoth(t, p, par)
	for name, res := range map[string]*Result{"spea2": s, "nsga2": n} {
		for i := range res.Front {
			for j := range res.Front {
				if i != j && Dominates(res.Front[i].Obj, res.Front[j].Obj) {
					t.Errorf("%s: front member %d dominates member %d", name, i, j)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := newKnapsack(17, 25)
	par := Params{Population: 30, Generations: 25, PCrossover: 0.95, PMutateBit: 0.01, Seed: 5}
	a1, _ := SPEA2(p, par)
	a2, _ := SPEA2(p, par)
	if len(a1.Front) != len(a2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(a1.Front), len(a2.Front))
	}
	for i := range a1.Front {
		if !equalObjectives(a1.Front[i].Obj, a2.Front[i].Obj) {
			t.Fatalf("front member %d differs between identical runs", i)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	p := newKnapsack(19, 20)
	calls := 0
	par := Params{
		Population: 20, Generations: 100, PCrossover: 0.95, PMutateBit: 0.01, Seed: 7,
		OnProgress: func(pr Progress) bool {
			calls++
			return pr.Gen < 4
		},
	}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 5 {
		t.Errorf("stopped after %d generations, want 5 (gen index 4 returns false)", res.Generations)
	}
	if calls != 5 {
		t.Errorf("OnProgress called %d times, want 5", calls)
	}
}

func TestSeedsEnterInitialPopulation(t *testing.T) {
	p := newKnapsack(23, 30)
	seed := NewGenome(30)
	for i := 0; i < 30; i++ {
		seed.Set(i, true) // all hardened: zero residual, known cost
	}
	par := Params{Population: 20, Generations: 2, PCrossover: 0.95, PMutateBit: 0.0, Seed: 9, Seeds: []Genome{seed}}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range res.Front {
		if in.Obj[0] == 0 {
			found = true
		}
	}
	if !found {
		t.Error("all-ones seed (zero residual) did not survive to the front")
	}
}

// TestTruncateKeepsCapacityAndExtremes truncates mutually
// nondominated sets — points on the plane where the objectives sum to
// one — on the two-objective chain path and the three-objective path:
// the archive must hold exactly the capacity and keep each objective's
// minimum.
func TestTruncateKeepsCapacityAndExtremes(t *testing.T) {
	for _, m := range []int{2, 3} {
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			set := make([]Individual, n)
			lo := make([]float64, m)
			for k := range lo {
				lo[k] = math.Inf(1)
			}
			for i := range set {
				obj := make([]float64, m)
				rest := 1.0
				for k := 0; k < m-1; k++ {
					obj[k] = rest * rng.Float64()
					rest -= obj[k]
				}
				obj[m-1] = rest
				for k, v := range obj {
					lo[k] = math.Min(lo[k], v)
				}
				set[i] = Individual{Obj: obj}
			}
			capacity := 5 + rng.Intn(10)
			out := environmentalSelection(set, capacity, m, 1, nil)
			if len(out) != capacity {
				t.Logf("m=%d seed %d: archive size %d, want %d", m, seed, len(out), capacity)
				return false
			}
			for k := range lo {
				kept := false
				for _, in := range out {
					kept = kept || in.Obj[k] == lo[k]
				}
				if !kept {
					t.Logf("m=%d seed %d: minimum %v of objective %d truncated", m, seed, lo[k], k)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

func TestEnvironmentalSelectionFillsUnderfullArchive(t *testing.T) {
	// One nondominated point plus dominated ones: archive of 3 must be
	// filled with the best dominated individuals.
	union := []Individual{
		{Obj: []float64{0, 0}},
		{Obj: []float64{1, 1}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{3, 3}},
	}
	arch := environmentalSelection(union, 3, 2, 1, nil)
	if len(arch) != 3 {
		t.Fatalf("archive size = %d, want 3", len(arch))
	}
	if !equalObjectives(arch[0].Obj, []float64{0, 0}) {
		t.Error("nondominated point missing from archive")
	}
}

func TestParamsValidation(t *testing.T) {
	p := newKnapsack(29, 10)
	if _, err := SPEA2(p, Params{Population: 1, Generations: 5}); err == nil {
		t.Error("accepted population 1")
	}
	if _, err := NSGA2(p, Params{Population: 10, Generations: 0}); err == nil {
		t.Error("accepted zero generations")
	}
	// A negative archive used to pass and shrink a single-population
	// SPEA-2 front to one point (an island run clamped its share to 1).
	for _, islands := range []int{0, 3} {
		if _, err := SPEA2(p, Params{Population: 20, Archive: -3, Generations: 5, Islands: islands}); err == nil {
			t.Errorf("accepted archive -3 at %d islands", islands)
		}
	}
}

func TestDefaults(t *testing.T) {
	small := Defaults(50, 300, 1)
	if small.Population != 100 {
		t.Errorf("population for 50 muxes = %d, want 100", small.Population)
	}
	big := Defaults(150, 300, 1)
	if big.Population != 300 {
		t.Errorf("population for 150 muxes = %d, want 300", big.Population)
	}
	if big.PCrossover != 0.95 || big.PMutateBit != 0.01 {
		t.Errorf("operator probabilities = (%v,%v), want (0.95,0.01)", big.PCrossover, big.PMutateBit)
	}
}

// TestGenerationAllocs gates the allocation diet: once the arena is
// warm, the generation loop must run in (near-)constant allocations —
// pooled genomes and objective vectors, reused union and scratch
// buffers. The steady-state rate is measured as the slope between a
// short and a long run of the same configuration, which cancels the
// one-time warm-up allocations. The runtime adds a few allocations at
// random — goroutines for the phases of a multi-island run (a single
// island runs its phases inline) — so the test runs on one processor
// with the collector off (it allocates about 20 MB), and each run
// counts the least of three repeats. A progress hook that never reads
// Progress.Front must cost nothing per generation, in single-population
// and island runs alike.
func TestGenerationAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := newKnapsack(17, 96)
	run := func(algo func(Problem, Params) (*Result, error), islands, gens int, hook func(Progress) bool) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := algo(p, Params{Population: 60, Generations: gens, Islands: islands,
				PCrossover: 0.95, PMutateBit: 0.02, Seed: 9, Workers: 1, OnProgress: hook})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	silent := func(Progress) bool { return true }
	reading := func(pr Progress) bool { return len(pr.Front()) > 0 }
	for name, algo := range map[string]func(Problem, Params) (*Result, error){"SPEA2": SPEA2, "NSGA2": NSGA2} {
		for _, islands := range []int{1, 3} {
			perGen := func(hook func(Progress) bool) float64 {
				short, long := run(algo, islands, 30, hook), run(algo, islands, 130, hook)
				return float64(long-short) / 100
			}
			plain := perGen(nil)
			// With the hot sorts on slices.SortFunc (no closure or
			// Swapper allocation) the remaining steady state is
			// occasional growth of the per-index dominance lists and
			// front buffers — measured under 4/gen. 16 leaves headroom
			// for runtime-internal variation while catching any
			// O(population) buffer reintroduced into the loop (before the
			// arena it allocated 2×population genome and objective
			// buffers per generation — thousands). The island model adds
			// its per-phase goroutines and migration on top, so the bound
			// holds for single-population runs.
			if islands == 1 && plain > 16 {
				t.Errorf("%s: %.1f allocs per generation in steady state, want <= 16", name, plain)
			}
			// A hook that reads nothing must not make the engine filter
			// (or, for islands, merge) the population.
			const tol = 0.1
			hooked := perGen(silent)
			if hooked > plain+tol {
				t.Errorf("%s islands=%d: %.1f allocs per generation with a hook that never reads the front, want <= %.1f + %.1f",
					name, islands, hooked, plain, tol)
			}
			// Reading the front costs the filter's two allocations, the
			// sweep order and the returned front; the island merge buffer
			// is reused across generations.
			read := perGen(reading)
			if read > plain+2.5 {
				t.Errorf("%s islands=%d: %.1f allocs per generation with a hook that reads the front, want <= %.1f + 2.5",
					name, islands, read, plain)
			}
			t.Logf("%s islands=%d: %.1f allocs/gen steady-state, %.1f with a silent hook, %.1f reading the front",
				name, islands, plain, hooked, read)
		}
	}
}
