package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

func analyzeNet(t *testing.T, net *rsn.Network) *faults.Analysis {
	t.Helper()
	tree, err := sptree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCanonicalObjectives(t *testing.T) {
	def, err := CanonicalObjectives(nil)
	if err != nil || len(def) != 2 || def[0] != ObjDamage || def[1] != ObjCost {
		t.Fatalf("empty list canonicalized to %v, %v; want default pair", def, err)
	}
	// Order-insensitive with duplicates removed: any permutation of the
	// same set canonicalizes to the same list.
	a, err := CanonicalObjectives([]string{"test_time", "damage", "cost", "damage"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalObjectives([]string{"cost", "test_time", " damage "})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ObjDamage, ObjCost, ObjTestTime}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("canonical lists %v / %v, want %v", a, b, want)
		}
	}
	// Unknown names error and name the known objectives.
	if _, err := CanonicalObjectives([]string{"damage", "nope"}); err == nil ||
		!strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), ObjYieldLoss) {
		t.Errorf("unknown objective error %v must quote the name and list the known objectives", err)
	}
	// Fewer than two distinct objectives is rejected.
	if _, err := CanonicalObjectives([]string{"damage", "damage"}); err == nil {
		t.Error("single-objective list accepted")
	}
}

func TestParseObjectives(t *testing.T) {
	got, err := ParseObjectives(" damage, test_time ,cost")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != ObjDamage || got[1] != ObjCost || got[2] != ObjTestTime {
		t.Errorf("ParseObjectives = %v", got)
	}
	if def, err := ParseObjectives(""); err != nil || len(def) != 2 {
		t.Errorf("empty flag parsed to %v, %v", def, err)
	}
	if _, err := ParseObjectives("damage,bogus"); err == nil {
		t.Error("bogus objective accepted")
	}
}

// TestKObjectiveEvaluateOracle checks slot placement across objective
// sets: on random genomes, with and without a forced-critical mask, the
// damage and cost slots of the four-objective problem agree exactly
// with the default pair's.
func TestKObjectiveEvaluateOracle(t *testing.T) {
	for _, force := range []bool{false, true} {
		a := analyzeNet(t, fixture.NestedSIBs())
		p, err := NewProblemWithObjectives(a, force, []string{"yield_loss", "cost", "damage", "test_time"})
		if err != nil {
			t.Fatal(err)
		}
		if p.NumObjectives() != 4 {
			t.Fatalf("NumObjectives = %d, want 4", p.NumObjectives())
		}
		pair, err := NewProblemWithObjectives(a, force, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 200; trial++ {
			g := moea.NewGenome(p.NumBits())
			for i := 0; i < p.NumBits(); i++ {
				g.Set(i, rng.Intn(2) == 0)
			}
			all := make([]float64, 4)
			two := make([]float64, 2)
			p.Evaluate(g, all)
			pair.Evaluate(g, two)
			if all[0] != two[0] || all[1] != two[1] {
				t.Fatalf("force=%v: 4-objective (damage,cost) = (%v,%v), pair = (%v,%v)",
					force, all[0], all[1], two[0], two[1])
			}
		}
	}
}

// accessPathCounts is the independent oracle of the test-time
// weights: for every instrument, a recursive walk descends the tree
// taking both children of series nodes, the containing branch of
// parallel nodes, and the shortest (ties left) branch of parallel
// sections that do not contain the target, counting each primitive
// it visits.
func accessPathCounts(a *faults.Analysis) map[rsn.NodeID]int64 {
	tr := a.Tree
	var minLen func(ref sptree.NodeRef) int64
	minLen = func(ref sptree.NodeRef) int64 {
		switch tr.OpOf(ref) {
		case sptree.OpLeaf:
			return 1
		case sptree.OpSeries:
			l, r := tr.Children(ref)
			return minLen(l) + minLen(r)
		case sptree.OpParallel:
			l, r := tr.Children(ref)
			if a, b := minLen(l), minLen(r); a <= b {
				return a
			} else {
				return b
			}
		}
		return 0
	}
	var contains func(ref sptree.NodeRef, id rsn.NodeID) bool
	contains = func(ref sptree.NodeRef, id rsn.NodeID) bool {
		switch tr.OpOf(ref) {
		case sptree.OpLeaf:
			return tr.PrimOf(ref) == id
		case sptree.OpSeries, sptree.OpParallel:
			l, r := tr.Children(ref)
			return contains(l, id) || contains(r, id)
		}
		return false
	}
	counts := map[rsn.NodeID]int64{}
	var walk func(ref sptree.NodeRef, target rsn.NodeID)
	walk = func(ref sptree.NodeRef, target rsn.NodeID) {
		switch tr.OpOf(ref) {
		case sptree.OpLeaf:
			counts[tr.PrimOf(ref)]++
		case sptree.OpSeries:
			l, r := tr.Children(ref)
			walk(l, target)
			walk(r, target)
		case sptree.OpParallel:
			l, r := tr.Children(ref)
			switch {
			case contains(l, target):
				walk(l, target)
			case contains(r, target):
				walk(r, target)
			case minLen(l) <= minLen(r):
				walk(l, target)
			default:
				walk(r, target)
			}
		}
	}
	for _, id := range a.Net.Instruments() {
		walk(tr.Root(), id)
	}
	return counts
}

// TestTestTimeWeightsOracle cross-checks the arena-pass traversal
// counts against the recursive walk of accessPathCounts.
func TestTestTimeWeightsOracle(t *testing.T) {
	for _, net := range []*rsn.Network{fixture.PaperExample(), fixture.SIBChain(6), fixture.NestedSIBs()} {
		a := analyzeNet(t, net)
		counts := accessPathCounts(a)
		w := testTimeWeights(a)
		for i, id := range a.Prims {
			if w[i] != counts[id] {
				t.Errorf("net %p prim %d: testTimeWeights = %d, oracle walk = %d", net, id, w[i], counts[id])
			}
		}
		// Every instrument's own segment is on its own path.
		for _, id := range net.Instruments() {
			if counts[id] < 1 {
				t.Errorf("instrument %d not on its own access path", id)
			}
		}
	}
}

// TestYieldLossObjective pins the linear form of the yield objective:
// with the default model (perfect hardening) the base is the full
// unhardened expected loss in micro-damage units, every weight is
// non-positive, and hardening everything cancels the base exactly.
func TestYieldLossObjective(t *testing.T) {
	a := analyzeNet(t, fixture.PaperExample())
	base, w := yieldLossLinear(a)
	if scale := objectives[objectiveIndex(ObjYieldLoss)].scale; scale != yieldScale {
		t.Errorf("scale = %v, want %v", scale, yieldScale)
	}
	if base <= 0 {
		t.Errorf("unhardened expected loss base = %d, want > 0", base)
	}
	var sum int64
	for _, x := range w {
		if x > 0 {
			t.Fatalf("hardening weight %d > 0 under perfect hardening", x)
		}
		sum += x
	}
	if base+sum != 0 {
		t.Errorf("hardening everything leaves %d micro-damage; perfect hardening must cancel the base", base+sum)
	}
}

// TestSynthesizeThreeObjectives runs the shipped 3-objective scenario
// (damage × cost × test time) end to end: the run is deterministic,
// every front solution carries named objective values whose damage and
// cost slots agree with the extracted solution, and the Table-I-style
// constrained picks are defined.
func TestSynthesizeThreeObjectives(t *testing.T) {
	run := func() *Synthesis {
		net := fixture.NestedSIBs()
		sp := spec.FromNetwork(net, spec.DefaultCostModel)
		opt := DefaultOptions(40, 7)
		opt.Objectives = []string{"test_time", "damage", "cost"}
		s, err := Synthesize(net, sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := run()
	wantObjs := []string{ObjDamage, ObjCost, ObjTestTime}
	for i := range wantObjs {
		if s.Objectives[i] != wantObjs[i] {
			t.Fatalf("Objectives = %v, want %v", s.Objectives, wantObjs)
		}
	}
	if len(s.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, sol := range s.Front {
		if len(sol.Values) != 3 {
			t.Fatalf("solution has %d objective values, want 3", len(sol.Values))
		}
		if sol.Values[0] != float64(sol.Damage) || sol.Values[1] != float64(sol.Cost) {
			t.Errorf("Values (%v, %v) disagree with Damage %d / Cost %d",
				sol.Values[0], sol.Values[1], sol.Damage, sol.Cost)
		}
		if sol.Values[2] < 0 {
			t.Errorf("negative test time %v", sol.Values[2])
		}
	}
	if _, ok := s.MinCostWithDamageAtMost(0.10); !ok {
		t.Error("damage-constrained pick undefined on 3-objective run")
	}
	if _, ok := s.MinDamageWithCostAtMost(0.10); !ok {
		t.Error("cost-constrained pick undefined on 3-objective run")
	}
	// Bit-identical across repeat runs.
	s2 := run()
	if len(s2.Front) != len(s.Front) {
		t.Fatalf("repeat run front size %d != %d", len(s2.Front), len(s.Front))
	}
	for i := range s.Front {
		for k := range s.Front[i].Values {
			if s.Front[i].Values[k] != s2.Front[i].Values[k] {
				t.Fatalf("repeat run differs at solution %d objective %d: %v != %v",
					i, k, s.Front[i].Values[k], s2.Front[i].Values[k])
			}
		}
	}
	// Unknown objective surfaces as a synthesis error.
	net := fixture.PaperExample()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	bad := DefaultOptions(10, 1)
	bad.Objectives = []string{"damage", "warp_drive"}
	if _, err := Synthesize(net, sp, bad); err == nil || !strings.Contains(err.Error(), "warp_drive") {
		t.Errorf("unknown objective error = %v", err)
	}
	// The default 2-objective solutions also carry named values.
	s0 := synthesizeExample(t, DefaultOptions(20, 3))
	for _, sol := range s0.Front {
		if len(sol.Values) != 2 || sol.Values[0] != float64(sol.Damage) || sol.Values[1] != float64(sol.Cost) {
			t.Fatalf("default-run Values %v inconsistent with (%d, %d)", sol.Values, sol.Damage, sol.Cost)
		}
	}
	if math.IsNaN(s.Front[0].Values[2]) {
		t.Error("NaN objective value")
	}
}
