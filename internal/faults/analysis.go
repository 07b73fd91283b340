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

	// Critical-instrument indicator vectors (1 per critical direction).
	critObs := make([]int64, net.NumNodes())
	critSet := make([]int64, net.NumNodes())
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindSegment && nd.Instr != nil {
			if nd.Instr.CriticalObs {
				critObs[nd.ID] = 1
			}
			if nd.Instr.CriticalSet {
				critSet[nd.ID] = 1
			}
		}
	})

	sumObs := tree.SubtreeSums(sp.DObs)
	sumSet := tree.SubtreeSums(sp.DSet)
	sumCObs := tree.SubtreeSums(critObs)
	sumCSet := tree.SubtreeSums(critSet)

	// Segment walk: accumulate, for every leaf, the weights of the
	// instruments that lose observability (series-earlier within the
	// enclosing branch) and settability (series-later) under a break of
	// that leaf's primitive.
	accObs, accSet := a.walk(sumObs, sumSet)
	accCObs, accCSet := a.walk(sumCObs, sumCSet)

	for _, id := range a.Prims {
		nd := net.Node(id)
		switch nd.Kind {
		case rsn.KindSegment:
			leaf := tree.LeafOf(id)
			d := accObs[leaf] + accSet[leaf] + sp.DObs[id] + sp.DSet[id]
			chit := accCObs[leaf]+accCSet[leaf]+critObs[id]+critSet[id] > 0
			if opts.SIBCoupling && nd.SIB && nd.Partner != rsn.None {
				// A broken SIB register also leaves the gated
				// sub-network unprogrammable: it additionally loses
				// settability (its observability loss is already part
				// of the series walk, the sub-network being
				// series-earlier than the register).
				if sub := sibSubnet(tree, nd.Partner); sub != sptree.NilRef {
					d += sumSet[sub]
					chit = chit || sumCSet[sub] > 0
				}
			}
			a.Damage[id] = d
			a.CritHit[id] = chit
		case rsn.KindMux:
			d, chit := a.muxDamage(id, opts.Combine, sumObs, sumSet, sumCObs, sumCSet)
			a.Damage[id] = d
			a.CritHit[id] = chit
		}
	}

	if opts.CtrlCoupling {
		a.applyCtrlCoupling(sumObs, sumSet, sumCObs, sumCSet)
	}

	for _, id := range a.Prims {
		a.TotalDamage += a.Damage[id]
	}
	return a, nil
}

// walk performs the pre-order accumulator traversal: entering the right
// child of a series node adds the left sibling's observability sum
// (those instruments shift out across the fault spot); entering the left
// child adds the right sibling's settability sum. Parallel nodes isolate
// the fault inside the branch controlled by the parental multiplexer, so
// the accumulators reset. Results are indexed by NodeRef (leaf refs).
func (a *Analysis) walk(sumObs, sumSet []int64) (accObs, accSet []int64) {
	n := a.Tree.Size()
	accObs = make([]int64, n)
	accSet = make([]int64, n)
	type frame struct {
		ref      sptree.NodeRef
		obs, set int64
	}
	stack := []frame{{ref: a.Tree.Root()}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch a.Tree.OpOf(fr.ref) {
		case sptree.OpLeaf:
			accObs[fr.ref] = fr.obs
			accSet[fr.ref] = fr.set
		case sptree.OpSeries:
			l, r := a.Tree.Children(fr.ref)
			stack = append(stack,
				frame{ref: l, obs: fr.obs, set: fr.set + sumSet[r]},
				frame{ref: r, obs: fr.obs + sumObs[l], set: fr.set},
			)
		case sptree.OpParallel:
			l, r := a.Tree.Children(fr.ref)
			stack = append(stack, frame{ref: l}, frame{ref: r})
		}
	}
	return accObs, accSet
}

// muxDamage computes the damage of a stuck multiplexer: stuck at port b,
// every other branch of the parallel section it closes loses both
// observability and settability.
func (a *Analysis) muxDamage(id rsn.NodeID, combine Combine, sumObs, sumSet, sumCObs, sumCSet []int64) (int64, bool) {
	brs := a.Tree.Branches(id)
	if len(brs) == 0 {
		return 0, false
	}
	var total, totalCrit int64
	per := make([]int64, len(brs))
	perCrit := make([]int64, len(brs))
	for i, b := range brs {
		per[i] = sumObs[b] + sumSet[b]
		perCrit[i] = sumCObs[b] + sumCSet[b]
		total += per[i]
		totalCrit += perCrit[i]
	}
	modes := make([]int64, len(brs))
	chit := false
	for b := range brs {
		modes[b] = total - per[b]
		if totalCrit-perCrit[b] > 0 {
			chit = true
		}
	}
	return combine.fold(modes), chit
}

// sibSubnet returns the gated sub-network branch (port 1) of a SIB mux,
// or NilRef for a degenerate SIB.
func sibSubnet(tree *sptree.Tree, mux rsn.NodeID) sptree.NodeRef {
	brs := tree.Branches(mux)
	if len(brs) < 2 {
		return sptree.NilRef
	}
	return brs[1]
}

// applyCtrlCoupling adds, for every non-SIB multiplexer controlled from
// a scan segment, the coupling damage to that control segment: a broken
// control segment leaves the mux unprogrammable, failing to its
// deasserted port 0, so every other branch becomes inaccessible. The
// control segment sits series-before the section it steers, so the
// branches' settability loss is already part of the segment walk; the
// increment is their observability weight. (SIB registers sit after
// their mux and are handled by SIBCoupling with the mirrored increment.)
//
// The computation assumes each control segment steers at most one
// multiplexer, or non-nested sections; overlapping nested sections under
// a shared control segment would be double-counted (the graph reference
// would flag such a network in the cross-check tests).
func (a *Analysis) applyCtrlCoupling(sumObs, sumSet, sumCObs, sumCSet []int64) {
	a.Net.Nodes(func(nd *rsn.Node) {
		if nd.Kind != rsn.KindMux || nd.SIB {
			return
		}
		src := nd.Ctrl.Source
		if src == rsn.None {
			return
		}
		brs := a.Tree.Branches(nd.ID)
		for b := 1; b < len(brs); b++ {
			a.Damage[src] += sumObs[brs[b]]
			if sumCObs[brs[b]] > 0 {
				a.CritHit[src] = true
			}
		}
	})
}

// universeOf returns the fault universe for the scope, in ID order.
func universeOf(net *rsn.Network, scope Scope) []rsn.NodeID {
	if scope == ScopeAll {
		return net.Primitives()
	}
	isCtrlSeg := make([]bool, net.NumNodes())
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindMux && nd.Ctrl.Source != rsn.None {
			isCtrlSeg[nd.Ctrl.Source] = true
		}
	})
	var out []rsn.NodeID
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindMux || (nd.Kind == rsn.KindSegment && isCtrlSeg[nd.ID]) {
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
