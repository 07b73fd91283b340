package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/telemetry"
	"rsnrobust/internal/yield"
)

func synthesizeExample(t *testing.T, opt Options) *Synthesis {
	t.Helper()
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	s, err := Synthesize(net, sp, opt)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return s
}

func TestSynthesizePaperExample(t *testing.T) {
	s := synthesizeExample(t, DefaultOptions(60, 1))
	if s.MaxDamage != 72 {
		t.Errorf("MaxDamage = %d, want 72", s.MaxDamage)
	}
	if s.MaxCost != 75 {
		// 3 instrument segments (4 bits), 3 control segments (2 bits),
		// 3 muxes at cost 2: 12+6+... see spec tests; recompute here:
		// 3*4 + 3*2 + 3*2 = 24.
		t.Logf("MaxCost = %d (depends on cost model)", s.MaxCost)
	}
	if len(s.Front) == 0 {
		t.Fatal("empty front")
	}
	// The front must contain the trivial zero-cost solution.
	foundZero := false
	for _, sol := range s.Front {
		if sol.Cost == 0 && sol.Damage == s.MaxDamage {
			foundZero = true
		}
		if sol.Damage < 0 || sol.Cost < 0 {
			t.Errorf("negative objective in solution: %+v", sol)
		}
	}
	if !foundZero {
		t.Error("zero-cost solution missing from front")
	}
	// With a tiny network and 60 generations, the optimizer must find a
	// complete-hardening (zero damage) solution too.
	if _, ok := s.MinCostWithDamageAtMost(0); !ok {
		t.Error("no zero-damage solution on front")
	}
}

func TestConstrainedPicks(t *testing.T) {
	s := synthesizeExample(t, DefaultOptions(80, 3))
	sol, ok := s.MinCostWithDamageAtMost(0.10)
	if !ok {
		t.Fatal("no solution with damage <= 10%")
	}
	if float64(sol.Damage) > 0.10*float64(s.MaxDamage) {
		t.Errorf("picked damage %d exceeds 10%% of %d", sol.Damage, s.MaxDamage)
	}
	// Verify minimality within the front.
	for _, other := range s.Front {
		if float64(other.Damage) <= 0.10*float64(s.MaxDamage) && other.Cost < sol.Cost {
			t.Errorf("front has cheaper feasible solution: %+v", other)
		}
	}

	sol2, ok := s.MinDamageWithCostAtMost(0.10)
	if !ok {
		t.Fatal("no solution with cost <= 10%")
	}
	if float64(sol2.Cost) > 0.10*float64(s.MaxCost) {
		t.Errorf("picked cost %d exceeds 10%% of %d", sol2.Cost, s.MaxCost)
	}
}

func TestSolutionObjectivesConsistent(t *testing.T) {
	// Property: for every front solution, Damage and Cost recompute from
	// the Hardened list via the analysis.
	s := synthesizeExample(t, DefaultOptions(40, 5))
	for _, sol := range s.Front {
		mask := hardenedMask(s.Analysis, sol.Hardened)
		if got := s.Analysis.ResidualDamage(mask); got != sol.Damage {
			t.Errorf("solution damage %d, recomputed %d", sol.Damage, got)
		}
		if got := s.Analysis.HardeningCost(mask); got != sol.Cost {
			t.Errorf("solution cost %d, recomputed %d", sol.Cost, got)
		}
		if got := countMask(mask); got != len(sol.Hardened) {
			t.Errorf("Hardened list length %d, %d distinct nodes", len(sol.Hardened), got)
		}
	}
}

// hardenedMask is a Hardened list as a mask indexed by rsn.NodeID.
func hardenedMask(a *faults.Analysis, hardened []rsn.NodeID) []bool {
	mask := make([]bool, a.Net.NumNodes())
	for _, id := range hardened {
		mask[id] = true
	}
	return mask
}

func countMask(m []bool) int {
	n := 0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// criticalCoveredRef is the mask-based critical coverage: every
// critical-hit primitive of the universe is hardened.
func criticalCoveredRef(a *faults.Analysis, mask []bool) bool {
	for _, id := range a.Prims {
		if a.CritHit[id] && !mask[id] {
			return false
		}
	}
	return true
}

// TestSolutionFromMatchesMasks is the extraction oracle: on the paper
// example and two random networks, with and without ForceCritical, for
// the default pair, a three-objective set and a set with neither damage
// nor cost, every field solutionFrom derives from the set bits must
// equal its mask-based reference on random genomes of every density
// plus the empty and full genomes: Hardened the mask's primitives in ID
// order, Cost and Damage the analysis' HardeningCost and
// ResidualDamage, CriticalCovered the mask's coverage, and Values the
// row-free referenceValue in reported units.
func TestSolutionFromMatchesMasks(t *testing.T) {
	nets := []*rsn.Network{fixture.PaperExample()}
	for _, seed := range []int64{5, 77} {
		nets = append(nets, benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 150, SegmentControls: seed == 77}))
	}
	sets := [][]string{nil, {ObjDamage, ObjCost, ObjTestTime}, {ObjTestTime, ObjYieldLoss}}
	covered := 0
	for ni, net := range nets {
		a := analyzeNet(t, net)
		counts := accessPathCounts(a)
		must := a.MustHardenCount()
		n := len(a.Prims)
		rng := rand.New(rand.NewSource(int64(ni)))
		gs := []moea.Genome{moea.NewGenome(n), moea.NewGenome(n)}
		for i := 0; i < n; i++ {
			gs[1].Set(i, true)
		}
		for trial := 0; trial < 40; trial++ {
			g := moea.NewGenome(n)
			g.Randomize(rng, rng.Float64(), n)
			gs = append(gs, g)
		}
		for _, force := range []bool{false, true} {
			for _, objs := range sets {
				p, err := NewProblemWithObjectives(a, force, objs)
				if err != nil {
					t.Fatal(err)
				}
				names := p.ObjectiveNames()
				for j, g := range gs {
					mask := make([]bool, net.NumNodes())
					var want []rsn.NodeID
					for i, id := range a.Prims {
						if g.Get(i) || (force && a.CritHit[id]) {
							mask[id] = true
							want = append(want, id)
						}
					}
					sol := solutionFrom(p, a, must, g)
					where := fmt.Sprintf("net %d force=%v objs=%v genome %d", ni, force, names, j)
					if !slices.Equal(sol.Hardened, want) {
						t.Fatalf("%s: Hardened %v, want %v", where, sol.Hardened, want)
					}
					if got, ref := sol.Cost, a.HardeningCost(mask); got != ref {
						t.Fatalf("%s: Cost %d, HardeningCost %d", where, got, ref)
					}
					if got, ref := sol.Damage, a.ResidualDamage(mask); got != ref {
						t.Fatalf("%s: Damage %d, ResidualDamage %d", where, got, ref)
					}
					if got, ref := sol.CriticalCovered, criticalCoveredRef(a, mask); got != ref {
						t.Fatalf("%s: CriticalCovered %v, reference %v", where, got, ref)
					}
					if sol.CriticalCovered {
						covered++
					}
					if len(sol.Values) != len(names) {
						t.Fatalf("%s: %d values for %d objectives", where, len(sol.Values), len(names))
					}
					for k, name := range names {
						if ref := referenceValue(t, a, counts, name, mask) / p.scales[k]; sol.Values[k] != ref {
							t.Fatalf("%s: %s = %v, reference %v", where, name, sol.Values[k], ref)
						}
					}
				}
			}
		}
	}
	if covered == 0 {
		t.Fatal("no solution covers its critical primitives; the CriticalCovered check compares only false")
	}
}

func TestForceCritical(t *testing.T) {
	s := synthesizeExample(t, Options{
		Generations:   30,
		Seed:          2,
		Analysis:      faults.DefaultOptions(),
		ForceCritical: true,
	})
	for _, sol := range s.Front {
		if !sol.CriticalCovered {
			t.Errorf("ForceCritical solution does not cover critical instruments: %+v", sol)
		}
	}
	// Every solution must harden at least the 4 critical-hitting
	// primitives of the example (m0, m1, i1, i3).
	for _, sol := range s.Front {
		if len(sol.Hardened) < 4 {
			t.Errorf("solution hardens only %d primitives with ForceCritical", len(sol.Hardened))
		}
	}
}

func TestProblemEvaluate(t *testing.T) {
	net := fixture.PaperExample()
	tree, err := sptree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemWithObjectives(a, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBits() != len(net.Primitives()) {
		t.Fatalf("NumBits = %d, want %d", p.NumBits(), len(net.Primitives()))
	}
	out := make([]float64, 2)
	g := moea.NewGenome(p.NumBits())
	p.Evaluate(g, out)
	if out[0] != float64(a.TotalDamage) || out[1] != 0 {
		t.Errorf("empty genome -> (%v,%v), want (%v,0)", out[0], out[1], float64(a.TotalDamage))
	}
	for i := 0; i < p.NumBits(); i++ {
		g.Set(i, true)
	}
	p.Evaluate(g, out)
	if out[0] != 0 || out[1] != float64(sp.MaxCost()) {
		t.Errorf("full genome -> (%v,%v), want (0,%v)", out[0], out[1], float64(sp.MaxCost()))
	}
}

// objectiveSubsets returns every objective set the table allows: the
// 11 subsets of size at least two, each in canonical order.
func objectiveSubsets() [][]string {
	all := ObjectiveNames()
	var sets [][]string
	for m := 0; m < 1<<len(all); m++ {
		if bits.OnesCount(uint(m)) < 2 {
			continue
		}
		var set []string
		for k, name := range all {
			if m&(1<<k) != 0 {
				set = append(set, name)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// referenceValue computes one objective for a hardening mask (forced
// bits included) without the problem's rows: damage and cost from the
// analysis' mask bookkeeping, test time from the recursive access-path
// counts, yield loss from yield.DefaultModel at each primitive's actual
// defect rate, in the objective's micro-damage units.
func referenceValue(t *testing.T, a *faults.Analysis, counts map[rsn.NodeID]int64, name string, mask []bool) float64 {
	t.Helper()
	var v int64
	switch name {
	case ObjDamage:
		v = a.ResidualDamage(mask)
	case ObjCost:
		v = a.HardeningCost(mask)
	case ObjTestTime:
		for _, id := range a.Prims {
			if mask[id] {
				v += counts[id]
			}
		}
	case ObjYieldLoss:
		for _, id := range a.Prims {
			p := yield.DefaultModel.FailProb(a.Spec.Cost[id], mask[id])
			v += int64(math.Round(p * float64(a.Damage[id]) * yieldScale))
		}
	default:
		t.Fatalf("no reference for objective %q", name)
	}
	return float64(v)
}

// TestProblemEvaluateMatchesAnalysis is the evaluation oracle: on the
// paper example and three random networks, for every objective subset
// with and without ForceCritical, each slot of Evaluate must equal an
// independent reference (referenceValue) on random genomes of every
// density plus the empty and full genomes.
func TestProblemEvaluateMatchesAnalysis(t *testing.T) {
	nets := []*rsn.Network{fixture.PaperExample()}
	for _, seed := range []int64{99, 101, 103} {
		nets = append(nets, benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 60 + int(seed)}))
	}
	forced := 0
	for ni, net := range nets {
		a := analyzeNet(t, net)
		counts := accessPathCounts(a)
		n := len(a.Prims)
		rng := rand.New(rand.NewSource(int64(ni)))
		gs := []moea.Genome{moea.NewGenome(n), moea.NewGenome(n)}
		for i := 0; i < n; i++ {
			gs[1].Set(i, true)
		}
		for trial := 0; trial < 40; trial++ {
			g := moea.NewGenome(n)
			g.Randomize(rng, rng.Float64(), n)
			gs = append(gs, g)
		}
		for _, force := range []bool{false, true} {
			masks := make([][]bool, len(gs))
			for j, g := range gs {
				masks[j] = make([]bool, net.NumNodes())
				for i, id := range a.Prims {
					masks[j][id] = g.Get(i) || (force && a.CritHit[id])
				}
			}
			if force {
				for _, id := range a.Prims {
					if a.CritHit[id] {
						forced++
					}
				}
			}
			for _, objs := range objectiveSubsets() {
				p, err := NewProblemWithObjectives(a, force, objs)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float64, len(objs))
				for j, g := range gs {
					p.Evaluate(g, got)
					for k, name := range objs {
						if want := referenceValue(t, a, counts, name, masks[j]); got[k] != want {
							t.Fatalf("net %d force=%v objs=%v genome %d: %s = %v, reference %v",
								ni, force, objs, j, name, got[k], want)
						}
					}
				}
			}
		}
	}
	if forced == 0 {
		t.Fatal("no network has forced-critical primitives; the ForceCritical half checks nothing")
	}
}

func TestApply(t *testing.T) {
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	s, err := Synthesize(net, sp, DefaultOptions(30, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Apply the full-hardening end of the front, then a sparser
	// solution: the second call must also clear the first one's marks.
	for _, sol := range []Solution{s.Front[len(s.Front)-1], s.Front[len(s.Front)/2]} {
		Apply(net, sol)
		mask := hardenedMask(s.Analysis, sol.Hardened)
		count := 0
		net.Nodes(func(nd *rsn.Node) {
			if nd.Hardened {
				count++
				if !mask[nd.ID] {
					t.Errorf("node %q hardened but not in Hardened", nd.Name)
				}
			}
		})
		if count != len(sol.Hardened) {
			t.Errorf("applied %d hardened nodes, want %d", count, len(sol.Hardened))
		}
	}
}

func TestSynthesizeRejectsInvalid(t *testing.T) {
	net := rsn.NewNetwork("broken")
	net.AddNode(rsn.Node{Kind: rsn.KindSegment, Name: "s", Length: 1})
	sp := spec.New(net, spec.DefaultCostModel)
	if _, err := Synthesize(net, sp, DefaultOptions(5, 1)); err == nil {
		t.Fatal("Synthesize accepted an invalid network")
	}
}

func TestNSGA2Backend(t *testing.T) {
	opt := DefaultOptions(40, 6)
	opt.Algorithm = AlgoNSGA2
	s := synthesizeExample(t, opt)
	if len(s.Front) == 0 {
		t.Fatal("NSGA-II produced an empty front")
	}
	if _, ok := s.MinCostWithDamageAtMost(0.10); !ok {
		t.Error("NSGA-II found no solution with damage <= 10% on the tiny example")
	}
}

func TestStagnationEarlyStop(t *testing.T) {
	// The tiny example converges almost immediately: with a stagnation
	// window of 10 generations the run must stop far short of the 500
	// generation budget, with the front still spanning both extremes.
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	opt := DefaultOptions(500, 7)
	opt.Stagnation = 10
	s, err := Synthesize(net, sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generations >= 500 {
		t.Errorf("stagnation stop did not trigger: ran %d generations", s.Generations)
	}
	if _, ok := s.MinCostWithDamageAtMost(0.10); !ok {
		t.Error("early-stopped run lost the low-damage corner")
	}
	if _, ok := s.MinDamageWithCostAtMost(0.10); !ok {
		t.Error("early-stopped run lost the low-cost corner")
	}
}

func TestStagnationComposesWithUserCallback(t *testing.T) {
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	opt := DefaultOptions(300, 7)
	opt.Stagnation = 50
	calls := 0
	opt.OnProgress = func(p Progress) bool {
		calls++
		return p.Gen < 3 // user stops first
	}
	s, err := Synthesize(net, sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generations != 4 {
		t.Errorf("user callback stop at generation 4, ran %d", s.Generations)
	}
	if calls != 4 {
		t.Errorf("user callback called %d times, want 4", calls)
	}
}

func TestConstrainedPickEdgeCases(t *testing.T) {
	// An empty front yields ok=false from both picks, never a zero-value
	// solution masquerading as a result.
	empty := &Synthesis{MaxDamage: 100, MaxCost: 100}
	if _, ok := empty.MinCostWithDamageAtMost(0.10); ok {
		t.Error("MinCostWithDamageAtMost returned ok on an empty front")
	}
	if _, ok := empty.MinDamageWithCostAtMost(0.10); ok {
		t.Error("MinDamageWithCostAtMost returned ok on an empty front")
	}

	s := &Synthesis{
		MaxDamage: 100,
		MaxCost:   100,
		Front: []Solution{
			{Damage: 0, Cost: 60},
			{Damage: 40, Cost: 7},
			{Damage: 90, Cost: 1},
		},
	}
	// frac=0 means "zero residual damage" resp. "zero cost": only exact
	// zeros qualify.
	sol, ok := s.MinCostWithDamageAtMost(0)
	if !ok || sol.Damage != 0 || sol.Cost != 60 {
		t.Errorf("frac=0 damage pick = %+v ok=%v, want the zero-damage solution", sol, ok)
	}
	if _, ok := s.MinDamageWithCostAtMost(0); ok {
		t.Error("frac=0 cost pick returned ok with no zero-cost solution on the front")
	}

	// No front solution meets the constraint: ok=false and the returned
	// value is the zero Solution, not an arbitrary pick.
	tight := &Synthesis{MaxDamage: 100, MaxCost: 100, Front: []Solution{{Damage: 50, Cost: 50}}}
	sol, ok = tight.MinCostWithDamageAtMost(0.10)
	if ok {
		t.Error("MinCostWithDamageAtMost returned ok with no feasible solution")
	}
	if sol.Cost != 0 || sol.Damage != 0 || sol.Hardened != nil {
		t.Errorf("infeasible pick returned non-zero Solution %+v", sol)
	}
	if _, ok := tight.MinDamageWithCostAtMost(0.10); ok {
		t.Error("MinDamageWithCostAtMost returned ok with no feasible solution")
	}
}

// TestWorkerDeterminism is the determinism gate of the executor
// refactor: the same seed must produce identical fronts, constrained
// picks and evaluation counts at workers=1 and workers=4 on a mid-size
// Table I benchmark. Wired into `make ci`.
func TestWorkerDeterminism(t *testing.T) {
	net1, err := benchnets.Generate("p22810")
	if err != nil {
		t.Fatal(err)
	}
	net4, err := benchnets.Generate("p22810")
	if err != nil {
		t.Fatal(err)
	}
	run := func(net *rsn.Network, workers int) *Synthesis {
		sp := spec.FromNetwork(net, spec.DefaultCostModel)
		opt := DefaultOptions(12, 42)
		opt.Workers = workers
		s, err := Synthesize(net, sp, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	s1 := run(net1, 1)
	s4 := run(net4, 4)
	if s1.Evaluations != s4.Evaluations {
		t.Errorf("evaluations differ: %d (workers=1) vs %d (workers=4)", s1.Evaluations, s4.Evaluations)
	}
	if s4.Workers != 4 || s1.Workers != 1 {
		t.Errorf("resolved workers = (%d,%d), want (1,4)", s1.Workers, s4.Workers)
	}
	if len(s1.Front) != len(s4.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(s1.Front), len(s4.Front))
	}
	for i := range s1.Front {
		a, b := s1.Front[i], s4.Front[i]
		if a.Cost != b.Cost || a.Damage != b.Damage || len(a.Hardened) != len(b.Hardened) {
			t.Fatalf("front member %d differs: (%d,%d,%d) vs (%d,%d,%d)",
				i, a.Cost, a.Damage, len(a.Hardened), b.Cost, b.Damage, len(b.Hardened))
		}
		for j := range a.Hardened {
			if a.Hardened[j] != b.Hardened[j] {
				t.Fatalf("front member %d hardens different primitives", i)
			}
		}
	}
	for _, frac := range []float64{0.05, 0.10, 0.25} {
		p1, ok1 := s1.MinCostWithDamageAtMost(frac)
		p4, ok4 := s4.MinCostWithDamageAtMost(frac)
		if ok1 != ok4 || p1.Cost != p4.Cost || p1.Damage != p4.Damage {
			t.Errorf("MinCostWithDamageAtMost(%v) differs across worker counts", frac)
		}
		q1, ok1 := s1.MinDamageWithCostAtMost(frac)
		q4, ok4 := s4.MinDamageWithCostAtMost(frac)
		if ok1 != ok4 || q1.Cost != q4.Cost || q1.Damage != q4.Damage {
			t.Errorf("MinDamageWithCostAtMost(%v) differs across worker counts", frac)
		}
	}
}

// TestSynthesizeFingerprints pins the search's output on rows whose
// selection takes each path — p34392 and t512505 fill an underfull
// archive, q12710 and MBIST_2_5_20 truncate an overfull one — at the
// quick budget, seeds 1 and 7, one population and three islands: an
// FNV-64a hash of the final front (cost, damage, hardened IDs) and the
// evaluation count. One more run attaches a collector and an OnProgress
// that reads every generation's record and also hashes its
// deterministic fields, so a change to the fronts the hooks measure
// shows as well. Work saved in
// selection or in the front filter must leave every hash unchanged.
func TestSynthesizeFingerprints(t *testing.T) {
	want := map[string]uint64{
		"p34392/1/1":        0xdeb851d3e8bef2ee,
		"p34392/1/3":        0xdbf95a112186a296,
		"p34392/7/1":        0x22bdaae7e4effe02,
		"p34392/7/3":        0xfe9620613d57890f,
		"t512505/1/1":       0x81739ba72c371fa5,
		"t512505/1/3":       0x296986d2ee78ef50,
		"t512505/7/1":       0x5bd5ed3361a4aa32,
		"t512505/7/3":       0x44e803559d5e4391,
		"q12710/1/1":        0x79326d6d3589379e,
		"q12710/1/3":        0x2f044ab52eedfd56,
		"q12710/7/1":        0x06cd90bd6d428c13,
		"q12710/7/3":        0xfb09cdf303684e66,
		"MBIST_2_5_20/1/1":  0x6945745c9269c169,
		"MBIST_2_5_20/1/3":  0xf269481b254ea08e,
		"MBIST_2_5_20/7/1":  0xe9602d5a5733aa68,
		"MBIST_2_5_20/7/3":  0xb6e75508420fa40a,
		"p34392/1/1/hooked": 0xd6a7955a55309c0f,
	}
	run := func(name string, seed int64, islands int, hooked bool) uint64 {
		e, ok := benchnets.Lookup(name)
		if !ok {
			t.Fatalf("no Table I row %s", name)
		}
		net, err := benchnets.GenerateEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(12345))
		if err != nil {
			t.Fatal(err)
		}
		gens := 150 // the quick budget of table1 and perfbench
		if e.Segments+e.Muxes > 10000 {
			gens = 60
		}
		opt := DefaultOptions(min(e.Generations, gens), seed)
		opt.Islands = islands
		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		if hooked {
			opt.Telemetry = telemetry.New()
			opt.OnProgress = func(p Progress) bool {
				g := p.Record()
				put(uint64(g.Gen))
				put(uint64(g.Front))
				put(math.Float64bits(g.Hypervolume))
				put(math.Float64bits(g.NormHV))
				put(math.Float64bits(g.BestDamage))
				put(math.Float64bits(g.BestCost))
				put(uint64(g.Evaluations))
				return true
			}
		}
		s, err := Synthesize(net, sp, opt)
		if err != nil {
			t.Fatalf("%s seed %d islands %d: %v", name, seed, islands, err)
		}
		for _, sol := range s.Front {
			put(uint64(sol.Cost))
			put(uint64(sol.Damage))
			put(uint64(len(sol.Hardened)))
			for _, id := range sol.Hardened {
				put(uint64(id))
			}
		}
		put(uint64(s.Evaluations))
		return h.Sum64()
	}
	for _, name := range []string{"p34392", "t512505", "q12710", "MBIST_2_5_20"} {
		for _, seed := range []int64{1, 7} {
			for _, islands := range []int{1, 3} {
				key := fmt.Sprintf("%s/%d/%d", name, seed, islands)
				if got := run(name, seed, islands, false); got != want[key] {
					t.Errorf("%s: fingerprint %#016x, want %#016x", key, got, want[key])
				}
			}
		}
	}
	if got := run("p34392", 1, 1, true); got != want["p34392/1/1/hooked"] {
		t.Errorf("p34392/1/1/hooked: fingerprint %#016x, want %#016x", got, want["p34392/1/1/hooked"])
	}
}

// TestOptionsPopulation: the Population knob overrides the default
// population without replacing the rest of the parameter set, and the
// evaluation effort scales accordingly.
func TestOptionsPopulation(t *testing.T) {
	optSmall := DefaultOptions(20, 1)
	optSmall.Population = 8
	small := synthesizeExample(t, optSmall)

	optBig := DefaultOptions(20, 1)
	optBig.Population = 32
	big := synthesizeExample(t, optBig)

	if small.Evaluations >= big.Evaluations {
		t.Errorf("population 8 evaluated %d genomes, population 32 evaluated %d — knob has no effect",
			small.Evaluations, big.Evaluations)
	}
	// The knob must compose with the Crossover option too, which must
	// reach the optimizer: the same run under one-point crossover
	// breeds different genomes.
	optUni := DefaultOptions(20, 1)
	optUni.Crossover = moea.Uniform
	optUni.Population = 6
	uni := synthesizeExample(t, optUni)
	if len(uni.Front) == 0 {
		t.Fatal("empty front with Crossover + Population override")
	}
	optOne := optUni
	optOne.Crossover = moea.OnePoint
	if one := synthesizeExample(t, optOne); one.DeltaEvals == uni.DeltaEvals && fmt.Sprint(one.Front) == fmt.Sprint(uni.Front) {
		t.Error("uniform and one-point crossover ran identically — Crossover has no effect")
	}
	// An invalid population must surface moea's validation error.
	optBad := DefaultOptions(20, 1)
	optBad.Population = 1
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	if _, err := Synthesize(net, sp, optBad); err == nil {
		t.Error("population 1 accepted; want moea validation error")
	}
}

// TestParseAlgorithm: every optimizer parses back from its String name,
// the empty name is the default, and any other spelling is an error.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{AlgoSPEA2, AlgoNSGA2} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if got, err := ParseAlgorithm(""); err != nil || got != AlgoSPEA2 {
		t.Errorf(`ParseAlgorithm("") = %v, %v, want spea2`, got, err)
	}
	for _, bad := range []string{"nsga3", "SPEA2", " spea2"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}

// BenchmarkExtractFront times the extraction of a 300-point front, the
// paper's population size, on MBIST_5_20_20 (30,537 primitives): the
// genomes' densities spread evenly over [0, 1], as a front spans
// nothing to everything hardened.
func BenchmarkExtractFront(b *testing.B) {
	net, err := benchnets.Generate("MBIST_5_20_20")
	if err != nil {
		b.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblemWithObjectives(a, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	front := make([]moea.Genome, 300)
	for k := range front {
		front[k] = moea.NewGenome(p.NumBits())
		front[k].Randomize(rng, float64(k)/float64(len(front)-1), p.NumBits())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must := a.MustHardenCount()
		for _, g := range front {
			solutionFrom(p, a, must, g)
		}
	}
}
