package baseline

import (
	"math/big"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

func analyze(t testing.TB, net *rsn.Network) *faults.Analysis {
	t.Helper()
	return analyzeScope(t, net, spec.FromNetwork(net, spec.DefaultCostModel), faults.ScopeAll)
}

func analyzeScope(t testing.TB, net *rsn.Network, sp *spec.Spec, scope faults.Scope) *faults.Analysis {
	t.Helper()
	tree, err := sptree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	opts := faults.DefaultOptions()
	opts.Scope = scope
	a, err := faults.Analyze(net, tree, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGreedyFrontShape(t *testing.T) {
	a := analyze(t, fixture.PaperExample())
	front := GreedyFront(a)
	if len(front) < 2 {
		t.Fatalf("front too small: %d", len(front))
	}
	if front[0].Cost != 0 || front[0].Damage != a.TotalDamage {
		t.Errorf("first solution = (%d,%d), want (0,%d)", front[0].Cost, front[0].Damage, a.TotalDamage)
	}
	last := front[len(front)-1]
	if last.Damage != 0 {
		t.Errorf("last solution damage = %d, want 0", last.Damage)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Cost <= front[i-1].Cost {
			t.Errorf("cost not strictly increasing at %d", i)
		}
		if front[i].Damage >= front[i-1].Damage {
			t.Errorf("damage not strictly decreasing at %d", i)
		}
	}
	checkSteps(t, a, front)
}

// sorted returns a sorted copy of ids.
func sorted(ids []rsn.NodeID) []rsn.NodeID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// checkSteps holds each greedy step to its prefix of the greedy order,
// which must list every universe primitive once in non-increasing
// damage-per-cost order: the step's cost, residual damage and critical
// coverage must recompute from the prefix's mask.
func checkSteps(t testing.TB, a *faults.Analysis, front []GreedyStep) {
	t.Helper()
	order := greedyOrder(a)
	if got, want := sorted(order), sorted(a.Prims); !slices.Equal(got, want) {
		t.Fatalf("greedy order is not a permutation of the universe")
	}
	ratio := func(id rsn.NodeID) (d, c *big.Int) {
		return big.NewInt(a.Damage[id]), big.NewInt(a.Spec.Cost[id])
	}
	for i := 1; i < len(order); i++ {
		d0, c0 := ratio(order[i-1])
		d1, c1 := ratio(order[i])
		if new(big.Int).Mul(d0, c1).Cmp(new(big.Int).Mul(d1, c0)) < 0 {
			t.Fatalf("greedy order puts %v/%v before %v/%v", d0, c0, d1, c1)
		}
	}
	for _, st := range front {
		hardened := sorted(order[:st.Hardened])
		checkBookkeeping(t, a, core.Solution{Hardened: hardened, Cost: st.Cost, Damage: st.Damage, CriticalCovered: st.CriticalCovered}, true)
	}
}

// checkBookkeeping holds a solution's fields to mask-based references
// rebuilt from its Hardened list, which must hold universe primitives
// in strictly increasing ID order: the residual damage, the cost and,
// if crit, the critical coverage.
func checkBookkeeping(t testing.TB, a *faults.Analysis, s core.Solution, crit bool) {
	t.Helper()
	mask := make([]bool, a.Net.NumNodes())
	for i, id := range s.Hardened {
		if i > 0 && id <= s.Hardened[i-1] {
			t.Fatalf("Hardened not in increasing ID order: %v", s.Hardened)
		}
		mask[id] = true
	}
	inUniverse, covered := 0, true
	for _, id := range a.Prims {
		if mask[id] {
			inUniverse++
		} else if a.CritHit[id] {
			covered = false
		}
	}
	switch {
	case inUniverse != len(s.Hardened):
		t.Errorf("Hardened holds %d non-universe nodes: %v", len(s.Hardened)-inUniverse, s.Hardened)
	case a.ResidualDamage(mask) != s.Damage || a.HardeningCost(mask) != s.Cost:
		t.Errorf("solution (%d,%d) recomputes to (%d,%d) from its Hardened list",
			s.Cost, s.Damage, a.HardeningCost(mask), a.ResidualDamage(mask))
	case crit && covered != s.CriticalCovered:
		t.Errorf("CriticalCovered = %v, Hardened list covers = %v", s.CriticalCovered, covered)
	}
}

func TestExactMatchesBruteForceOnTinyNetworks(t *testing.T) {
	for _, scope := range []faults.Scope{faults.ScopeAll, faults.ScopeControl} {
		t.Run(scope.String(), func(t *testing.T) { testExactMatchesBruteForce(t, scope) })
	}
}

// testExactMatchesBruteForce checks the property that DP optima equal
// exhaustive-enumeration optima for tiny random networks. Under the
// control scope the networks have segment-controlled multiplexers, so
// that the universe holds segments as well as muxes.
func testExactMatchesBruteForce(t *testing.T, scope faults.Scope) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 10, SegmentControls: scope == faults.ScopeControl})
		a := analyzeScope(t, net, spec.FromNetwork(net, spec.DefaultCostModel), scope)
		n := len(a.Prims)
		if n > 16 {
			return true // keep enumeration cheap
		}
		e := NewExact(a)
		maxCost := a.MaxCost()
		// Enumerate all subsets.
		type point struct{ cost, damage int64 }
		best := map[int64]int64{} // cost budget -> min damage (filled below)
		points := make([]point, 0, 1<<n)
		for m := 0; m < 1<<n; m++ {
			var cost, removed int64
			for i := 0; i < n; i++ {
				if m&(1<<i) != 0 {
					cost += a.Spec.Cost[a.Prims[i]]
					removed += a.Damage[a.Prims[i]]
				}
			}
			points = append(points, point{cost, a.TotalDamage - removed})
		}
		_ = best
		for _, budget := range []int64{0, maxCost / 10, maxCost / 3, maxCost} {
			var bruteMin int64 = a.TotalDamage
			for _, p := range points {
				if p.cost <= budget && p.damage < bruteMin {
					bruteMin = p.damage
				}
			}
			if got := e.MinDamageWithCostAtMost(budget); got != bruteMin {
				t.Logf("seed %d budget %d: DP %d, brute force %d", seed, budget, got, bruteMin)
				return false
			}
		}
		for _, limit := range []int64{0, a.TotalDamage / 10, a.TotalDamage / 2, a.TotalDamage} {
			var bruteCost int64 = -1
			for _, p := range points {
				if p.damage <= limit && (bruteCost < 0 || p.cost < bruteCost) {
					bruteCost = p.cost
				}
			}
			got, ok := e.MinCostWithDamageAtMost(limit)
			if !ok {
				t.Logf("seed %d limit %d: DP found no solution", seed, limit)
				return false
			}
			if got != bruteCost {
				t.Logf("seed %d limit %d: DP cost %d, brute force %d", seed, limit, got, bruteCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	// Property: the exact DP is at least as good as any greedy prefix.
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 40})
		a := analyze(t, net)
		e := NewExact(a)
		for _, s := range GreedyFront(a) {
			if opt := e.MinDamageWithCostAtMost(s.Cost); opt > s.Damage {
				t.Logf("seed %d: greedy (%d,%d) beats DP optimum %d", seed, s.Cost, s.Damage, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomFrontNondominated(t *testing.T) {
	a := analyze(t, fixture.SIBChain(8))
	front := RandomFront(a, 3, 200)
	if len(front) == 0 {
		t.Fatal("empty random front")
	}
	for i := range front {
		for j := range front {
			if i == j {
				continue
			}
			if front[j].Cost <= front[i].Cost && front[j].Damage <= front[i].Damage &&
				(front[j].Cost < front[i].Cost || front[j].Damage < front[i].Damage) {
				t.Fatalf("random front member %d dominated by %d", i, j)
			}
		}
		checkBookkeeping(t, a, front[i], false)
	}
}

func TestExactTractable(t *testing.T) {
	a := analyze(t, fixture.PaperExample())
	if !ExactTractable(a, 1<<20) {
		t.Error("tiny instance reported intractable")
	}
	if ExactTractable(a, 1) {
		t.Error("instance fits in 1 operation")
	}

	// The DP's cost axis ends at the cost of the fault universe, not at
	// that of every node: under the control scope that is the muxes and
	// their control segments.
	net, err := benchnets.Generate("MBIST_5_20_20")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	a = analyzeScope(t, net, sp, faults.ScopeControl)
	if a.MaxCost() >= sp.MaxCost() {
		t.Fatalf("control universe costs %d, the whole network %d", a.MaxCost(), sp.MaxCost())
	}
	ops := int64(len(a.Prims)) * (a.MaxCost() + 1)
	if !ExactTractable(a, ops) {
		t.Errorf("ExactTractable(%d ops) = false for %d primitives of universe cost %d", ops, len(a.Prims), a.MaxCost())
	}
	if ExactTractable(a, ops-1) {
		t.Errorf("ExactTractable(%d ops) = true", ops-1)
	}
	if got, want := len(NewExact(a).removed), int(a.MaxCost()+1); got != want {
		t.Errorf("DP table has %d entries, want %d", got, want)
	}
}

func TestTMROverheadExceedsSelective(t *testing.T) {
	a := analyze(t, fixture.SIBChain(10))
	tmr := TMROverhead(a, 1)
	if tmr <= a.Spec.MaxCost() {
		t.Errorf("TMR overhead %d not above full hardening cost %d", tmr, a.Spec.MaxCost())
	}
	// Selective hardening at 10% cost is far below TMR.
	e := NewExact(a)
	if d := e.MinDamageWithCostAtMost(a.Spec.MaxCost() / 10); d >= a.TotalDamage {
		t.Errorf("10%% budget removed no damage (%d of %d)", d, a.TotalDamage)
	}
}

// TestGreedyFrontRatioOverflow is the regression test for the int64
// overflow in the greedy ratio sort: damage × cost products at the
// 1e9 × 1e9.5 scale exceed 2^63 and used to wrap, flipping the order.
// Item A (d=3.1e9, c=4e9, ratio 0.775) beats item B (d=2.3e9, c=3e9,
// ratio 0.767), but dA·cB = 9.3e18 wraps negative while dB·cA = 9.2e18
// stays positive, so the wrapped comparison sorted B first.
func TestGreedyFrontRatioOverflow(t *testing.T) {
	b := rsn.NewBuilder("overflow")
	b.Segment("A", 1, &rsn.Instrument{Name: "A", DamageObs: 1})
	b.Segment("B", 1, &rsn.Instrument{Name: "B", DamageObs: 1})
	net := b.Finish()
	a := analyze(t, net)
	if len(a.Prims) != 2 {
		t.Fatalf("fixture has %d prims, want 2", len(a.Prims))
	}
	idA, idB := net.Lookup("A"), net.Lookup("B")
	const (
		dA, cA = int64(3_100_000_000), int64(4_000_000_000)
		dB, cB = int64(2_300_000_000), int64(3_000_000_000)
	)
	// The products must actually overflow int64 for the test to bite.
	if hi, lo := bits.Mul64(uint64(dA), uint64(cB)); hi != 0 || lo < 1<<63 {
		t.Fatal("fixture products sized wrong: want a product in (2^63, 2^64)")
	}
	a.Damage[idA], a.Spec.Cost[idA] = dA, cA
	a.Damage[idB], a.Spec.Cost[idB] = dB, cB
	a.TotalDamage = dA + dB

	front := GreedyFront(a)
	if len(front) != 3 {
		t.Fatalf("front has %d solutions, want 3", len(front))
	}
	// The better-ratio item A must be hardened first.
	if order := greedyOrder(a); order[0] != idA {
		t.Errorf("first greedy pick hardened B (ratio %.3f) before A (ratio %.3f)",
			float64(dB)/float64(cB), float64(dA)/float64(cA))
	}
	if front[1].Hardened != 1 || front[1].Cost != cA || front[1].Damage != dB {
		t.Errorf("front[1] = %d hardened at (%d,%d), want 1 at (%d,%d)", front[1].Hardened, front[1].Cost, front[1].Damage, cA, dB)
	}
	checkSteps(t, a, front)
}

// TestGreedyFrontInvariants checks the greedy staircase on random
// networks: strictly increasing cost, strictly decreasing damage (so
// the output is mutually nondominated), endpoints at (0, TotalDamage)
// and (≤MaxCost, 0), and objectives that recompute from each step's
// prefix of the greedy order.
func TestGreedyFrontInvariants(t *testing.T) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 40, SegmentControls: true})
		a := analyze(t, net)
		front := GreedyFront(a)
		if len(front) == 0 {
			t.Log("empty front")
			return false
		}
		first, last := front[0], front[len(front)-1]
		if first.Cost != 0 || first.Damage != a.TotalDamage {
			t.Logf("seed %d: first = (%d,%d), want (0,%d)", seed, first.Cost, first.Damage, a.TotalDamage)
			return false
		}
		if last.Damage != 0 {
			t.Logf("seed %d: last damage = %d, want 0 (full-hardening floor)", seed, last.Damage)
			return false
		}
		if last.Cost > a.MaxCost() {
			t.Logf("seed %d: last cost %d exceeds MaxCost %d", seed, last.Cost, a.MaxCost())
			return false
		}
		for i := 1; i < len(front); i++ {
			if front[i].Cost <= front[i-1].Cost || front[i].Damage >= front[i-1].Damage {
				t.Logf("seed %d: staircase violated at %d: (%d,%d) after (%d,%d)", seed, i,
					front[i].Cost, front[i].Damage, front[i-1].Cost, front[i-1].Damage)
				return false
			}
		}
		// Strict monotonicity in both objectives ⇒ mutually nondominated;
		// cross-check against the generic dominance filter anyway.
		sols := make([]core.Solution, len(front))
		for i, st := range front {
			sols[i] = core.Solution{Cost: st.Cost, Damage: st.Damage}
		}
		if got := paretoSolutions(sols); len(got) != len(front) {
			t.Logf("seed %d: %d of %d greedy solutions dominated", seed, len(front)-len(got), len(front))
			return false
		}
		checkSteps(t, a, front)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupe exercises the staircase deduper directly: equal-cost
// prefixes keep only the last (least damage), prefixes that fail to
// reduce damage are dropped.
func TestDedupe(t *testing.T) {
	mk := func(cost, damage int64) GreedyStep { return GreedyStep{Cost: cost, Damage: damage} }
	in := []GreedyStep{
		mk(0, 100),
		mk(0, 90), // same cost, less damage: replaces the previous
		mk(5, 90), // more cost, same damage: dominated, dropped
		mk(5, 80), // same cost as the dropped one: kept
		mk(7, 80), // no damage reduction: dropped
		mk(9, 10),
		mk(9, 10), // exact duplicate: dropped
		mk(12, 0),
	}
	want := []GreedyStep{mk(0, 90), mk(5, 80), mk(9, 10), mk(12, 0)}
	got := dedupe(in)
	if len(got) != len(want) {
		t.Fatalf("dedupe returned %d solutions, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dedupe[%d] = (%d,%d), want (%d,%d)", i, got[i].Cost, got[i].Damage, want[i].Cost, want[i].Damage)
		}
	}
}

// TestGreedyFrontMemory holds the greedy staircase to O(primitives)
// memory on a row where every prefix survives: MBIST_1_20_20 in
// universe all, 6,113 primitives. Prefix lists of their own took 79.5 MB
// there.
func TestGreedyFrontMemory(t *testing.T) {
	net, err := benchnets.Generate("MBIST_1_20_20")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	a := analyzeScope(t, net, sp, faults.ScopeAll)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	front := GreedyFront(a)
	runtime.ReadMemStats(&after)
	if len(front) != len(a.Prims)+1 {
		t.Errorf("%d of %d prefixes survive, want all", len(front), len(a.Prims)+1)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("GreedyFront allocated %.1f MB for %d primitives, want <= 2 MB", float64(got)/(1<<20), len(a.Prims))
	}
}
