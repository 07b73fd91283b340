package faults

import (
	"testing"
	"testing/quick"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

func analyzeNet(t *testing.T, net *rsn.Network, opts Options) (*Analysis, *spec.Spec) {
	t.Helper()
	if err := rsn.Validate(net); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	a, err := Analyze(net, tree, sp, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a, sp
}

// TestPaperExampleDamages verifies the criticality analysis against
// hand-computed damages for the paper's Fig. 1 running example with
// weights i1=(1,2), i2=(3,4), i3=(5,6).
func TestPaperExampleDamages(t *testing.T) {
	net := fixture.PaperExample()
	a, _ := analyzeNet(t, net, DefaultOptions())

	want := map[string]int64{
		// m0 stuck-at-1 loses the whole upper branch: obs 1+3+5 plus
		// set 2+4+6 = 21; stuck-at-0 loses only c1 (no instrument).
		"m0": 21,
		// m1 stuck-at-0 loses i3 (5+6=11), stuck-at-1 loses i2 (7).
		"m1": 11,
		// m2 gates only the uninstrumented c2 against a bypass.
		"m2": 0,
		// c0 on the trunk: everything upstream loses observability.
		"c0": 9,
		// c1 alone in the lower branch.
		"c1": 0,
		// c2 alone in its branch with a bypass alternative.
		"c2": 0,
		// i1 heads the upper branch: own 1+2, and i2,i3 lose
		// settability (4+6).
		"i1": 13,
		// i2 and i3 sit alone in parallel branches: own weights only.
		"i2": 7,
		"i3": 11,
	}
	for name, wantD := range want {
		id := net.Lookup(name)
		if id == rsn.None {
			t.Fatalf("node %q not found", name)
		}
		if got := a.Damage[id]; got != wantD {
			t.Errorf("damage(%s) = %d, want %d", name, got, wantD)
		}
	}
	if wantTotal := int64(72); a.TotalDamage != wantTotal {
		t.Errorf("TotalDamage = %d, want %d", a.TotalDamage, wantTotal)
	}
}

// TestPaperExampleFig4 checks the concrete fault of the paper's Fig. 4:
// m0 stuck-at-1 makes i1, i2 and i3 inaccessible.
func TestPaperExampleFig4(t *testing.T) {
	net := fixture.PaperExample()
	m0 := net.Lookup("m0")
	obsLost, setLost := Effect(net, Fault{Kind: MuxStuck, Node: m0, Port: 1}, DefaultOptions())
	for _, name := range []string{"i1", "i2", "i3"} {
		id := net.Lookup(name)
		if !obsLost[id] || !setLost[id] {
			t.Errorf("%s should be fully inaccessible under m0 stuck-at-1", name)
		}
	}
	// The opposite stuck value keeps every instrument accessible.
	obsLost, setLost = Effect(net, Fault{Kind: MuxStuck, Node: m0, Port: 0}, DefaultOptions())
	for _, id := range net.Instruments() {
		if obsLost[id] || setLost[id] {
			t.Errorf("%s should stay accessible under m0 stuck-at-0", net.Node(id).Name)
		}
	}
}

// TestSegmentFaultDirections checks the asymmetry of segment faults:
// upstream instruments lose observability, downstream ones lose
// settability (Section IV-B.1).
func TestSegmentFaultDirections(t *testing.T) {
	b := rsn.NewBuilder("chain3")
	b.Segment("up", 4, &rsn.Instrument{Name: "up", DamageObs: 1, DamageSet: 1})
	b.Segment("mid", 4, &rsn.Instrument{Name: "mid", DamageObs: 1, DamageSet: 1})
	b.Segment("down", 4, &rsn.Instrument{Name: "down", DamageObs: 1, DamageSet: 1})
	net := b.Finish()

	obsLost, setLost := Effect(net, Fault{Kind: SegmentBreak, Node: net.Lookup("mid")}, DefaultOptions())
	up, mid, down := net.Lookup("up"), net.Lookup("mid"), net.Lookup("down")
	if !obsLost[up] || setLost[up] {
		t.Errorf("up: obsLost=%v setLost=%v, want true/false", obsLost[up], setLost[up])
	}
	if !obsLost[mid] || !setLost[mid] {
		t.Errorf("mid must lose both directions")
	}
	if obsLost[down] || !setLost[down] {
		t.Errorf("down: obsLost=%v setLost=%v, want false/true", obsLost[down], setLost[down])
	}
}

// TestSIBCoupling verifies that a broken SIB register also costs the
// gated sub-network its settability (the paper's segment+mux
// combination rule).
func TestSIBCoupling(t *testing.T) {
	net := fixture.NestedSIBs()
	top := net.Lookup("top")

	// With coupling: ia, ib lose settability (2·(20+40)... no: weights
	// ia=(10,20), ib=(30,40)): break(top) makes ia,ib lose obs (they
	// shift out through the broken register) = 10+30; coupling adds
	// their settability = 20+40. The trailing 'it' sits downstream of
	// the register... actually upstream order: top.fo -> subnet ->
	// top.mux -> top(reg) -> it -> SO, so 'it' loses settability (2).
	a, _ := analyzeNet(t, net, Options{Combine: CombineMax, SIBCoupling: true})
	if got, want := a.Damage[top], int64(10+30+20+40+2); got != want {
		t.Errorf("damage(top) with coupling = %d, want %d", got, want)
	}

	aNo, _ := analyzeNet(t, net, Options{Combine: CombineMax, SIBCoupling: false})
	if got, want := aNo.Damage[top], int64(10+30+2); got != want {
		t.Errorf("damage(top) without coupling = %d, want %d", got, want)
	}

	// The SIB mux stuck-at-deasserted loses the whole sub-network both
	// ways (ia+ib: obs 10+30, set 20+40 = 100); stuck-at-asserted loses
	// nothing; the worst case is the full sub-network.
	mux := net.Node(top).Partner
	if got, want := a.Damage[mux], int64(10+30+20+40); got != want {
		t.Errorf("damage(top.mux) = %d, want %d (subnet obs+set)", got, want)
	}
}

// TestCombinePolicies checks the damage folding policies on a mux with
// asymmetric branches.
func TestCombinePolicies(t *testing.T) {
	b := rsn.NewBuilder("asym")
	bs := b.Fork("f", 2)
	bs.Branch(0).Segment("small", 1, &rsn.Instrument{Name: "small", DamageObs: 1, DamageSet: 1})
	bs.Branch(1).Segment("big", 1, &rsn.Instrument{Name: "big", DamageObs: 10, DamageSet: 10})
	bs.Join("m", rsn.External())
	net := b.Finish()
	m := net.Lookup("m")

	// stuck@0 loses "big" (20); stuck@1 loses "small" (2).
	aMax, _ := analyzeNet(t, net, Options{Combine: CombineMax, SIBCoupling: true})
	if got := aMax.Damage[m]; got != 20 {
		t.Errorf("max damage = %d, want 20", got)
	}
	aSum, _ := analyzeNet(t, net, Options{Combine: CombineSum, SIBCoupling: true})
	if got := aSum.Damage[m]; got != 22 {
		t.Errorf("sum damage = %d, want 22", got)
	}
	aMean, _ := analyzeNet(t, net, Options{Combine: CombineMean, SIBCoupling: true})
	if got := aMean.Damage[m]; got != 11 {
		t.Errorf("mean damage = %d, want 11", got)
	}
}

// TestAnalyzeMatchesReference cross-checks the tree-based engine against
// graph reachability on the fixtures.
func TestAnalyzeMatchesReference(t *testing.T) {
	nets := []*rsn.Network{
		fixture.PaperExample(),
		fixture.SIBChain(5),
		fixture.NestedSIBs(),
	}
	for _, net := range nets {
		for _, combine := range []Combine{CombineMax, CombineSum, CombineMean} {
			opts := Options{Combine: combine, SIBCoupling: true}
			a, sp := analyzeNet(t, net, opts)
			ref := ReferenceDamage(net, sp, opts)
			for _, id := range net.Primitives() {
				if a.Damage[id] != ref[id] {
					t.Errorf("%s/%v: damage(%s) = %d, reference %d",
						net.Name, combine, net.Node(id).Name, a.Damage[id], ref[id])
				}
			}
		}
	}
}

// TestAnalyzeMatchesReferenceRandom is the central property test: on
// random series-parallel networks the O(tree) analysis must equal the
// O(primitives·edges) graph reference for every primitive.
func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 50})
		tree, err := sptree.Build(net)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sp := spec.FromNetwork(net, spec.DefaultCostModel)
		opts := Options{Combine: CombineMax, SIBCoupling: true}
		a, err := Analyze(net, tree, sp, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := ReferenceDamage(net, sp, opts)
		for _, id := range net.Primitives() {
			if a.Damage[id] != ref[id] {
				t.Logf("seed %d: damage(%s) = %d, reference %d",
					seed, net.Node(id).Name, a.Damage[id], ref[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeMatchesReferenceRandomCtrl repeats the central property
// test on networks with segment-controlled multiplexers and the
// extended control-coupling analysis enabled.
func TestAnalyzeMatchesReferenceRandomCtrl(t *testing.T) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 50, SegmentControls: true})
		tree, err := sptree.Build(net)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sp := spec.FromNetwork(net, spec.DefaultCostModel)
		opts := Options{Combine: CombineMax, SIBCoupling: true, CtrlCoupling: true}
		a, err := Analyze(net, tree, sp, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := ReferenceDamage(net, sp, opts)
		for _, id := range net.Primitives() {
			if a.Damage[id] != ref[id] {
				t.Logf("seed %d: damage(%s) = %d, reference %d",
					seed, net.Node(id).Name, a.Damage[id], ref[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCritHit verifies that primitives endangering critical instruments
// are flagged. In the paper example i3 is control-critical; every
// primitive whose fault costs i3 its settability must be flagged.
func TestCritHit(t *testing.T) {
	net := fixture.PaperExample()
	a, _ := analyzeNet(t, net, DefaultOptions())

	wantHit := map[string]bool{
		"m0": true,  // stuck-at-1 loses i3 entirely
		"m1": true,  // stuck-at-1 loses i3
		"i1": true,  // break costs i3 its settability
		"i3": true,  // own break
		"m2": false, // gates only c2
		"c0": false, // downstream: costs observability only
		"c1": false,
		"c2": false,
		"i2": false,
	}
	for name, want := range wantHit {
		id := net.Lookup(name)
		if got := a.CritHit[id]; got != want {
			t.Errorf("CritHit(%s) = %v, want %v", name, got, want)
		}
	}
	must := a.MustHarden()
	if len(must) != 4 {
		t.Errorf("MustHarden returned %d primitives, want 4", len(must))
	}
	if n := a.MustHardenCount(); n != len(must) {
		t.Errorf("MustHardenCount = %d, want len(MustHarden()) = %d", n, len(must))
	}
}

// TestResidualDamage checks objective bookkeeping.
func TestResidualDamage(t *testing.T) {
	net := fixture.PaperExample()
	a, sp := analyzeNet(t, net, DefaultOptions())

	none := make([]bool, net.NumNodes())
	if got := a.ResidualDamage(none); got != a.TotalDamage {
		t.Errorf("ResidualDamage(nothing) = %d, want %d", got, a.TotalDamage)
	}
	if got := a.HardeningCost(none); got != 0 {
		t.Errorf("HardeningCost(nothing) = %d, want 0", got)
	}

	all := make([]bool, net.NumNodes())
	for _, id := range net.Primitives() {
		all[id] = true
	}
	if got := a.ResidualDamage(all); got != 0 {
		t.Errorf("ResidualDamage(everything) = %d, want 0", got)
	}
	if got := a.HardeningCost(all); got != sp.MaxCost() {
		t.Errorf("HardeningCost(everything) = %d, want %d", got, sp.MaxCost())
	}

	// Hardening only m0 removes exactly d(m0)=21.
	onlyM0 := make([]bool, net.NumNodes())
	onlyM0[net.Lookup("m0")] = true
	if got := a.ResidualDamage(onlyM0); got != a.TotalDamage-21 {
		t.Errorf("ResidualDamage(m0) = %d, want %d", got, a.TotalDamage-21)
	}
}

// TestFaultUniverse checks fault enumeration.
func TestFaultUniverse(t *testing.T) {
	net := fixture.PaperExample()
	u := Universe(net)
	// 6 segments (1 mode each) + 3 two-port muxes (2 modes each).
	if len(u) != 6+6 {
		t.Errorf("universe size = %d, want 12", len(u))
	}
	for _, f := range u {
		if !net.Node(f.Node).IsPrimitive() {
			t.Errorf("fault %v on non-primitive", f.String(net))
		}
	}
}

// TestCtrlCoupling checks the extended analysis: a broken control
// segment inherits the worst stuck damage of the muxes it steers.
func TestCtrlCoupling(t *testing.T) {
	b := rsn.NewBuilder("ctrl")
	cfg := b.Segment("cfg", 1, nil)
	bs := b.Fork("f", 2)
	bs.Branch(0).Segment("x", 1, &rsn.Instrument{Name: "x", DamageObs: 5, DamageSet: 5})
	bs.Branch(1).Segment("y", 1, &rsn.Instrument{Name: "y", DamageObs: 3, DamageSet: 3})
	bs.Join("m", rsn.Control{Source: cfg, Bit: 0, Width: 1})
	net := b.Finish()

	plain, _ := analyzeNet(t, net, Options{Combine: CombineMax, SIBCoupling: true})
	coupled, _ := analyzeNet(t, net, Options{Combine: CombineMax, SIBCoupling: true, CtrlCoupling: true})

	// Without coupling, cfg's break costs x and y their settability
	// (5+3=8); with coupling the mux fails to its deasserted port 0, so
	// branch 1 (y) additionally loses observability (+3).
	cfgID := net.Lookup("cfg")
	if got := plain.Damage[cfgID]; got != 8 {
		t.Errorf("plain damage(cfg) = %d, want 8", got)
	}
	if got := coupled.Damage[cfgID]; got != 11 {
		t.Errorf("coupled damage(cfg) = %d, want 11", got)
	}

	// Reference agrees.
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	ref := ReferenceDamage(net, sp, Options{Combine: CombineMax, SIBCoupling: true, CtrlCoupling: true})
	if ref[cfgID] != coupled.Damage[cfgID] {
		t.Errorf("reference damage(cfg) = %d, analysis %d", ref[cfgID], coupled.Damage[cfgID])
	}
}
