package faults

import (
	"fmt"

	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// Scope selects the fault universe (and thereby the hardening candidate
// set) of the analysis.
type Scope uint8

// Fault universe scopes. ScopeAll covers every scan primitive (the
// general model of Section IV). ScopeControl restricts the universe to
// the control primitives — multiplexers and the segments that source
// multiplexer select values (SIB registers included): the spots whose
// faults corrupt scan PATHS, which the paper's selective hardening
// targets (instrument data registers are protected by the orthogonal,
// conventional means referenced in Section I).
const (
	ScopeAll Scope = iota
	ScopeControl
)

// String returns "all" or "control".
func (s Scope) String() string {
	if s == ScopeControl {
		return "control"
	}
	return "all"
}

// ParseScope returns the fault universe String names; the empty name
// is the zero value, ScopeAll. Any other name is an error.
func ParseScope(name string) (Scope, error) {
	switch name {
	case "", ScopeAll.String():
		return ScopeAll, nil
	case ScopeControl.String():
		return ScopeControl, nil
	}
	return 0, fmt.Errorf("unknown fault universe %q (want all or control)", name)
}

// Options configures the criticality analysis.
type Options struct {
	// Combine folds the per-fault-mode damages of a primitive into d_j.
	Combine Combine
	// Scope selects the fault universe / hardening candidate set.
	Scope Scope
	// SIBCoupling models the control dependency inside a SIB: a broken
	// SIB register leaves the insertion multiplexer unprogrammable, so
	// the gated sub-network additionally loses settability. This is the
	// paper's "combination of a scan segment and a multiplexer" rule.
	SIBCoupling bool
	// CtrlCoupling extends the same reasoning to every multiplexer whose
	// control bits live in a scan segment: a fault in the control
	// segment adds the worst-case stuck damage of each dependent mux.
	// The paper's analysis is purely structural, so this defaults off;
	// it is exercised by the extended-analysis ablation.
	CtrlCoupling bool
}

// DefaultOptions matches the paper: worst-case fault mode per primitive
// and SIB register/multiplexer coupling.
func DefaultOptions() Options {
	return Options{Combine: CombineMax, SIBCoupling: true}
}

// Analysis holds the result of the criticality analysis of one network
// under one specification.
type Analysis struct {
	Net  *rsn.Network
	Tree *sptree.Tree
	Spec *spec.Spec
	Opts Options

	// Prims is the fault universe (hardening candidates) in ID order.
	Prims []rsn.NodeID
	// Damage maps every node ID to its damage d_j (zero outside the
	// fault universe).
	Damage []int64
	// CritHit marks primitives whose fault makes at least one critical
	// instrument inaccessible in the protected direction; these must be
	// hardened to fulfil the paper's guarantee that all important
	// instruments stay accessible.
	CritHit []bool
	// TotalDamage is Σ_j d_j over all primitives: the system damage when
	// nothing is hardened (Table I column "Max. Damage").
	TotalDamage int64
}

// Analyze runs the criticality analysis. The tree must belong to net and
// the specification must be sized for net.
//
// It fills one buffer of tree-node lanes bottom-up, reads the section
// damages from it and sweeps it top-down for the series damages.
func Analyze(net *rsn.Network, tree *sptree.Tree, sp *spec.Spec, opts Options) (*Analysis, error) {
	if tree.Network() != net {
		return nil, fmt.Errorf("faults: tree was built for network %q, not %q", tree.Network().Name, net.Name)
	}
	if len(sp.DObs) != net.NumNodes() {
		return nil, fmt.Errorf("faults: spec sized for %d nodes, network has %d", len(sp.DObs), net.NumNodes())
	}
	a := &Analysis{
		Net:     net,
		Tree:    tree,
		Spec:    sp,
		Opts:    opts,
		Prims:   universeOf(net, opts.Scope),
		Damage:  make([]int64, net.NumNodes()),
		CritHit: make([]bool, net.NumNodes()),
	}
	lanes := a.subtreeSums()
	a.sectionDamages(lanes)
	a.seriesDamages(lanes)
	for _, id := range a.Prims {
		a.TotalDamage += a.Damage[id]
	}
	return a, nil
}

// lane is one tree node's slot in Analyze's buffer: observability and
// settability weights and the number of critical instruments in each
// direction, summed over the node's subtree until the top-down sweep
// replaces them with what a fault inside the subtree cuts off outside it.
type lane struct {
	obs, set   int64
	cobs, cset int32
}

func (x lane) plus(y lane) lane {
	return lane{x.obs + y.obs, x.set + y.set, x.cobs + y.cobs, x.cset + y.cset}
}

// subtreeSums annotates every tree node with the weights of the
// instruments in its subtree. The arena holds children before their
// parents, so one forward pass suffices (the hierarchical
// reverse-polish-order computation of Section IV-C).
func (a *Analysis) subtreeSums() []lane {
	t := a.Tree
	lanes := make([]lane, t.Size())
	for ref := sptree.NodeRef(0); int(ref) < len(lanes); ref++ {
		switch t.OpOf(ref) {
		case sptree.OpLeaf:
			id := t.PrimOf(ref)
			ln := lane{obs: a.Spec.DObs[id], set: a.Spec.DSet[id]}
			if nd := a.Net.Node(id); nd.Kind == rsn.KindSegment && nd.Instr != nil {
				if nd.Instr.CriticalObs {
					ln.cobs = 1
				}
				if nd.Instr.CriticalSet {
					ln.cset = 1
				}
			}
			lanes[ref] = ln
		case sptree.OpSeries, sptree.OpParallel:
			l, r := t.Children(ref)
			lanes[ref] = lanes[l].plus(lanes[r])
		}
	}
	return lanes
}

// sectionDamages adds the damages that the subtree sums decide alone:
// that of every stuck multiplexer, and the coupling terms a broken
// control segment adds for the section its multiplexer closes.
func (a *Analysis) sectionDamages(lanes []lane) {
	for _, id := range a.Prims {
		nd := a.Net.Node(id)
		switch nd.Kind {
		case rsn.KindSegment:
			if a.Opts.SIBCoupling && nd.SIB && nd.Partner != rsn.None {
				// A broken SIB register also leaves the gated
				// sub-network (the SIB mux's port-1 branch)
				// unprogrammable: it additionally loses settability
				// (its observability loss is already part of the
				// series walk, the sub-network being series-earlier
				// than the register).
				if brs := a.Tree.Branches(nd.Partner); len(brs) >= 2 {
					a.Damage[id] += lanes[brs[1]].set
					a.CritHit[id] = a.CritHit[id] || lanes[brs[1]].cset > 0
				}
			}
		case rsn.KindMux:
			brs := a.Tree.Branches(id)
			a.Damage[id], a.CritHit[id] = muxDamage(brs, lanes, a.Opts.Combine)
			if a.Opts.CtrlCoupling && !nd.SIB && nd.Ctrl.Source != rsn.None {
				a.ctrlCoupling(nd.Ctrl.Source, brs, lanes)
			}
		}
	}
}

// muxDamage computes the damage of a stuck multiplexer: stuck at port b,
// every other branch of the parallel section it closes loses both
// observability and settability.
func muxDamage(brs []sptree.NodeRef, lanes []lane, combine Combine) (int64, bool) {
	if len(brs) == 0 {
		return 0, false
	}
	var total, totalCrit int64
	for _, b := range brs {
		total += lanes[b].obs + lanes[b].set
		totalCrit += int64(lanes[b].cobs) + int64(lanes[b].cset)
	}
	var sum, worst int64
	chit := false
	for i, b := range brs {
		mode := total - (lanes[b].obs + lanes[b].set)
		sum += mode
		if i == 0 || mode > worst {
			worst = mode
		}
		if totalCrit-(int64(lanes[b].cobs)+int64(lanes[b].cset)) > 0 {
			chit = true
		}
	}
	return combine.of(sum, worst, len(brs)), chit
}

// ctrlCoupling adds, for a non-SIB multiplexer controlled from segment
// src, the coupling damage to src: a broken control segment leaves the
// mux unprogrammable, failing to its deasserted port 0, so every other
// branch becomes inaccessible. The control segment sits series-before
// the section it steers, so the branches' settability loss is already
// part of the series walk; the increment is their observability weight.
// (SIB registers sit after their mux and are handled by SIBCoupling with
// the mirrored increment.)
//
// The computation assumes each control segment steers at most one
// multiplexer, or non-nested sections; overlapping nested sections under
// a shared control segment would be double-counted (the graph reference
// would flag such a network in the cross-check tests).
func (a *Analysis) ctrlCoupling(src rsn.NodeID, brs []sptree.NodeRef, lanes []lane) {
	for b := 1; b < len(brs); b++ {
		a.Damage[src] += lanes[brs[b]].obs
		if lanes[brs[b]].cobs > 0 {
			a.CritHit[src] = true
		}
	}
}

// seriesDamages is the top-down sweep. Entering the right child of a
// series node adds the left sibling's observability sum (those
// instruments shift out across the fault spot); entering the left child
// adds the right sibling's settability sum. Parallel nodes isolate the
// fault inside the branch controlled by the parental multiplexer, so
// the accumulators reset. Visiting the arena in reverse reaches every
// parent before its children, so a parent reads its children's sums
// and overwrites them with their accumulators. Only the shared empty
// node has more than one parent; those are parallel nodes, which write
// it zero, so it keeps its zero sum. The sweep then adds every
// segment's series damage: the accumulated weights plus its own.
func (a *Analysis) seriesDamages(lanes []lane) {
	t := a.Tree
	if root := t.Root(); root >= 0 {
		lanes[root] = lane{}
	}
	for ref := sptree.NodeRef(len(lanes) - 1); ref >= 0; ref-- {
		switch t.OpOf(ref) {
		case sptree.OpSeries:
			l, r := t.Children(ref)
			acc := lanes[ref]
			lanes[l], lanes[r] = acc.plus(lane{set: lanes[r].set, cset: lanes[r].cset}),
				acc.plus(lane{obs: lanes[l].obs, cobs: lanes[l].cobs})
		case sptree.OpParallel:
			l, r := t.Children(ref)
			lanes[l], lanes[r] = lane{}, lane{}
		}
	}
	for _, id := range a.Prims {
		nd := a.Net.Node(id)
		if nd.Kind != rsn.KindSegment {
			continue
		}
		acc := lanes[t.LeafOf(id)]
		a.Damage[id] += acc.obs + acc.set + a.Spec.DObs[id] + a.Spec.DSet[id]
		own := nd.Instr != nil && (nd.Instr.CriticalObs || nd.Instr.CriticalSet)
		a.CritHit[id] = a.CritHit[id] || acc.cobs > 0 || acc.cset > 0 || own
	}
}

// universeOf returns the fault universe for the scope, in ID order.
func universeOf(net *rsn.Network, scope Scope) []rsn.NodeID {
	if scope == ScopeAll {
		return net.Primitives()
	}
	isCtrlSeg := make([]bool, net.NumNodes())
	count := 0
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind != rsn.KindMux {
			return
		}
		count++
		if src := nd.Ctrl.Source; src != rsn.None && !isCtrlSeg[src] && net.Node(src).Kind == rsn.KindSegment {
			isCtrlSeg[src] = true
			count++
		}
	})
	out := make([]rsn.NodeID, 0, count)
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindMux || isCtrlSeg[nd.ID] {
			out = append(out, nd.ID)
		}
	})
	return out
}

// MaxCost returns the cost of hardening the whole fault universe
// (Table I column "Max. Cost" under the analysis scope).
func (a *Analysis) MaxCost() int64 {
	var sum int64
	for _, id := range a.Prims {
		sum += a.Spec.Cost[id]
	}
	return sum
}

// MustHarden returns the primitives whose fault hits a critical
// instrument; hardening exactly these guarantees that all important
// instruments stay accessible under any single fault.
func (a *Analysis) MustHarden() []rsn.NodeID {
	var out []rsn.NodeID
	for _, id := range a.Prims {
		if a.CritHit[id] {
			out = append(out, id)
		}
	}
	return out
}

// MustHardenCount returns len(a.MustHarden()) without building the
// list.
func (a *Analysis) MustHardenCount() int {
	n := 0
	for _, id := range a.Prims {
		if a.CritHit[id] {
			n++
		}
	}
	return n
}

// ResidualDamage returns Σ d_j over the primitives not hardened in x
// (x indexed by NodeID). This is objective (2) of Section V for a given
// hardening decision.
func (a *Analysis) ResidualDamage(hardened []bool) int64 {
	var d int64
	for _, id := range a.Prims {
		if !hardened[id] {
			d += a.Damage[id]
		}
	}
	return d
}

// HardeningCost returns Σ c_j x_j, objective (3) of Section V.
func (a *Analysis) HardeningCost(hardened []bool) int64 {
	var c int64
	for _, id := range a.Prims {
		if hardened[id] {
			c += a.Spec.Cost[id]
		}
	}
	return c
}
