package faults

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rsnrobust/internal/fixture"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
)

// TestMultiEffectMonotone: adding a second fault can only lose more.
func TestMultiEffectMonotone(t *testing.T) {
	net := fixture.PaperExample()
	opts := DefaultOptions()
	u := Universe(net)
	for i, f1 := range u {
		o1, s1 := MultiEffect(net, []Fault{f1}, opts)
		for _, f2 := range u[i+1:] {
			if f1.Node == f2.Node {
				continue
			}
			o2, s2 := MultiEffect(net, []Fault{f1, f2}, opts)
			for n := range o1 {
				if (o1[n] && !o2[n]) || (s1[n] && !s2[n]) {
					t.Fatalf("adding %s to %s recovered access at node %d",
						f2.String(net), f1.String(net), n)
				}
			}
		}
	}
}

func TestMultiEffectDoubleFault(t *testing.T) {
	// m0 stuck-at-0 keeps the upper branch; a break of c1 alone keeps
	// everything except c1's path... combining m0 stuck-at-0 with a
	// break of i1 leaves i2/i3 settable? i1 is upstream of them in the
	// selected branch: they lose settability; c0 keeps observability.
	net := fixture.PaperExample()
	fs := []Fault{
		{Kind: MuxStuck, Node: net.Lookup("m0"), Port: 0},
		{Kind: SegmentBreak, Node: net.Lookup("i1")},
	}
	obsLost, setLost := MultiEffect(net, fs, DefaultOptions())
	for _, name := range []string{"i2", "i3"} {
		id := net.Lookup(name)
		if !setLost[id] {
			t.Errorf("%s should lose settability (broken i1 upstream, branch forced)", name)
		}
		if obsLost[id] {
			t.Errorf("%s should stay observable", name)
		}
	}
	// i1 itself: both.
	if i1 := net.Lookup("i1"); !obsLost[i1] || !setLost[i1] {
		t.Error("i1 must lose both directions")
	}
}

func TestSampleMultiFaultStats(t *testing.T) {
	net := fixture.SIBChain(6)
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	opts := DefaultOptions()

	one := SampleMultiFault(net, sp, opts, 1, 400, 7)
	two := SampleMultiFault(net, sp, opts, 2, 400, 7)
	if one.Samples != 400 || two.Samples != 400 {
		t.Fatalf("sample counts wrong: %d, %d", one.Samples, two.Samples)
	}
	if two.MeanDamage < one.MeanDamage {
		t.Errorf("two faults damage less than one on average: %v vs %v", two.MeanDamage, one.MeanDamage)
	}
	if two.MeanAccessible > one.MeanAccessible {
		t.Errorf("two faults leave more accessible than one: %v vs %v", two.MeanAccessible, one.MeanAccessible)
	}
	if one.MeanAccessible <= 0 || one.MeanAccessible > 1 {
		t.Errorf("MeanAccessible out of range: %v", one.MeanAccessible)
	}
}

func TestSampleMultiFaultRespectsHardening(t *testing.T) {
	net := fixture.SIBChain(5)
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	opts := DefaultOptions()
	before := SampleMultiFault(net, sp, opts, 2, 300, 11)

	// Harden everything: no fault site remains, zero damage.
	net.Nodes(func(nd *rsn.Node) {
		if nd.IsPrimitive() {
			nd.Hardened = true
		}
	})
	after := SampleMultiFault(net, sp, opts, 2, 300, 11)
	if after.MeanDamage != 0 || after.WorstDamage != 0 {
		t.Errorf("fully hardened network still damaged: %+v", after)
	}
	if after.MeanAccessible != 1 {
		t.Errorf("fully hardened MeanAccessible = %v, want 1", after.MeanAccessible)
	}
	if before.MeanDamage == 0 {
		t.Error("unhardened baseline shows no damage; test is vacuous")
	}
}

func TestSampleMultiFaultDeterministic(t *testing.T) {
	net := fixture.NestedSIBs()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	a := SampleMultiFault(net, sp, DefaultOptions(), 2, 200, 3)
	b := SampleMultiFault(net, sp, DefaultOptions(), 2, 200, 3)
	if a != b {
		t.Errorf("sampling not deterministic: %+v vs %+v", a, b)
	}
}

// TestSampleSitesSkewedWeightsTerminate is the regression test for the
// rejection-sampling hang: with one site holding >99.9% of the weight
// mass and k == len(sites), the old redraw loop kept hitting the
// already-chosen heavy site essentially forever. Weight-removal
// sampling must finish in exactly k draws and cover every site.
func TestSampleSitesSkewedWeightsTerminate(t *testing.T) {
	b := rsn.NewBuilder("skewed")
	// ~1e12 : 1 weight skew: the heavy site holds all but 9e-12 of the
	// mass, so the old redraw loop needed ~1e12 iterations per remaining
	// draw — never terminating in practice.
	b.Segment("huge", 1<<40, &rsn.Instrument{Name: "huge", DamageObs: 1})
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("tiny%d", i)
		b.Segment(name, 1, &rsn.Instrument{Name: name, DamageObs: 1})
	}
	net := b.Finish()
	sp := spec.FromNetwork(net, spec.DefaultCostModel)

	sites := net.Primitives()
	weights := make([]int64, len(sites))
	var totalW int64
	for i, id := range sites {
		weights[i] = sp.Cost[id]
		totalW += weights[i]
	}
	if frac := float64(weights[0]) / float64(totalW); frac < 0.999 {
		t.Fatalf("fixture not skewed enough: heavy site holds %.4f of the mass", frac)
	}

	done := make(chan []Fault, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		done <- sampleSites(rng, net, sites, weights, totalW, len(sites))
	}()
	var fs []Fault
	select {
	case fs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sampleSites did not terminate with skewed weights and k == len(sites)")
	}
	if len(fs) != len(sites) {
		t.Fatalf("drew %d faults, want %d", len(fs), len(sites))
	}
	seen := map[rsn.NodeID]bool{}
	for _, f := range fs {
		if seen[f.Node] {
			t.Fatalf("site %d drawn twice", f.Node)
		}
		seen[f.Node] = true
	}
	for _, id := range sites {
		if !seen[id] {
			t.Errorf("site %d never drawn although k == len(sites)", id)
		}
	}

	// End to end: the Monte-Carlo campaign over the same skewed network
	// must terminate and count every requested sample.
	st := SampleMultiFault(net, sp, DefaultOptions(), len(sites), 50, 1)
	if st.Samples != 50 {
		t.Errorf("Samples = %d, want 50", st.Samples)
	}
}

// TestSampleSitesZeroPredMux: a multiplexer with zero predecessors is
// degenerate but constructible via the builder (ForkAny closed with no
// branches). Sampling it must fall back to a SegmentBreak instead of
// panicking in rng.Intn(0).
func TestSampleSitesZeroPredMux(t *testing.T) {
	b := rsn.NewBuilder("zero-pred-mux")
	b.Segment("head", 2, &rsn.Instrument{Name: "head", DamageObs: 1, DamageSet: 1})
	bs := b.ForkAny("f0")
	mux := bs.Join("m0", rsn.External())
	b.Segment("tail", 2, &rsn.Instrument{Name: "tail", DamageObs: 1, DamageSet: 1})
	net := b.Finish()
	if n := len(net.Pred(mux)); n != 0 {
		t.Fatalf("fixture mux has %d predecessors, want 0", n)
	}
	sp := spec.FromNetwork(net, spec.DefaultCostModel)

	sites := net.Primitives()
	weights := make([]int64, len(sites))
	var totalW int64
	for i, id := range sites {
		weights[i] = sp.Cost[id]
		totalW += weights[i]
	}
	rng := rand.New(rand.NewSource(5))
	fs := sampleSites(rng, net, sites, weights, totalW, len(sites)) // must not panic
	var muxFault *Fault
	for i := range fs {
		if fs[i].Node == mux {
			muxFault = &fs[i]
		}
	}
	if muxFault == nil {
		t.Fatal("degenerate mux never sampled although k == len(sites)")
	}
	if muxFault.Kind != SegmentBreak {
		t.Errorf("zero-pred mux sampled as %v, want SegmentBreak fallback", muxFault.Kind)
	}
	if st := SampleMultiFault(net, sp, DefaultOptions(), len(sites), 25, 5); st.Samples != 25 {
		t.Errorf("Samples = %d, want 25", st.Samples)
	}
}

// TestSampleMultiFaultDegenerateSamples: a campaign that samples
// nothing — fully hardened network, no instruments, or a non-positive
// sample request — must report Samples == 0, never "N samples, mean
// damage 0".
func TestSampleMultiFaultDegenerateSamples(t *testing.T) {
	net := fixture.SIBChain(4)
	sp := spec.FromNetwork(net, spec.DefaultCostModel)
	opts := DefaultOptions()

	net.Nodes(func(nd *rsn.Node) {
		if nd.IsPrimitive() {
			nd.Hardened = true
		}
	})
	st := SampleMultiFault(net, sp, opts, 2, 300, 11)
	if st.Samples != 0 {
		t.Errorf("fully hardened: Samples = %d, want 0", st.Samples)
	}
	if st.MeanAccessible != 1 {
		t.Errorf("fully hardened: MeanAccessible = %v, want 1", st.MeanAccessible)
	}

	fresh := fixture.SIBChain(4)
	freshSp := spec.FromNetwork(fresh, spec.DefaultCostModel)
	if st := SampleMultiFault(fresh, freshSp, opts, 2, 0, 11); st.Samples != 0 {
		t.Errorf("samples<=0: Samples = %d, want 0", st.Samples)
	}

	b := rsn.NewBuilder("no-instr")
	b.Segment("s", 4, nil)
	noInstr := b.Finish()
	noInstrSp := spec.FromNetwork(noInstr, spec.DefaultCostModel)
	if st := SampleMultiFault(noInstr, noInstrSp, opts, 1, 100, 11); st.Samples != 0 {
		t.Errorf("no instruments: Samples = %d, want 0", st.Samples)
	}
}
