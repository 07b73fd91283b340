package faults

import (
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
)

// Effect computes, directly on the graph, which instruments lose
// observability and settability under a single fault (Section IV-B):
//
//   - a broken segment is removed from the graph: an instrument loses
//     observability iff it can no longer reach scan-out, and loses
//     settability iff clean data can no longer arrive from scan-in or it
//     can no longer lie on any sensitizable path;
//   - a multiplexer stuck at port b kills the edges into its other
//     ports; every instrument that can no longer reach scan-out can
//     never lie on a sensitizable path and loses both directions;
//   - a broken segment that sources multiplexer control bits leaves
//     those multiplexers unprogrammable; they fail to their deasserted
//     port 0, so the other branches become inaccessible. opts.SIBCoupling
//     enables this rule for SIB register/mux pairs (the paper's
//     "combination of a scan segment and a multiplexer"),
//     opts.CtrlCoupling extends it to every segment-controlled mux.
//
// The returned slices are indexed by rsn.NodeID and are true only for
// instrument-hosting segments. This is the O(E)-per-fault reference the
// tree-based Analysis is validated against, and it agrees bit-for-bit
// with the access.Simulator under the paper's semantics. It is
// MultiEffect of the one fault: both run the same reachability walks.
func Effect(net *rsn.Network, f Fault, opts Options) (obsLost, setLost []bool) {
	return MultiEffect(net, []Fault{f}, opts)
}

// addCtrlDeadEdges adds to dead the mux input edges that die because
// their select source src broke: the dependent muxes fail to port 0. A
// mux stuck by one of fs pins its select physically, so the coupling
// leaves it alone.
func addCtrlDeadEdges(dead map[edgeKey]bool, net *rsn.Network, src rsn.NodeID, opts Options, fs []Fault) {
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind != rsn.KindMux || nd.Ctrl.Source != src {
			return
		}
		if nd.SIB && !opts.SIBCoupling {
			return
		}
		if !nd.SIB && !opts.CtrlCoupling {
			return
		}
		for _, f := range fs {
			if f.Kind == MuxStuck && f.Node == nd.ID {
				return
			}
		}
		for p, from := range net.Pred(nd.ID) {
			if p != 0 {
				dead[edgeKey{from: from, to: nd.ID, port: p}] = true
			}
		}
	})
}

// addStuckDeadEdges adds to dead the in-edges of mux that a
// stuck-at-alivePort fault disables.
func addStuckDeadEdges(dead map[edgeKey]bool, net *rsn.Network, mux rsn.NodeID, alivePort int) {
	for p, from := range net.Pred(mux) {
		if p != alivePort {
			dead[edgeKey{from: from, to: mux, port: p}] = true
		}
	}
}

// edgeKey identifies a directed edge by endpoints and the port index at
// the target (to distinguish parallel edges into one mux).
type edgeKey struct {
	from, to rsn.NodeID
	port     int
}

// ReferenceDamage recomputes every primitive's damage d_j from graph
// reachability alone, folding fault modes with the configured combine
// policy. Intended for validating Analyze on small networks; it is
// O(primitives × edges).
func ReferenceDamage(net *rsn.Network, sp *spec.Spec, opts Options) []int64 {
	dmg := make([]int64, net.NumNodes())
	for _, id := range net.Primitives() {
		var modes []int64
		for _, f := range FaultsOf(net, id) {
			obsLost, setLost := Effect(net, f, opts)
			var d int64
			for i := 0; i < net.NumNodes(); i++ {
				if obsLost[i] {
					d += sp.DObs[i]
				}
				if setLost[i] {
					d += sp.DSet[i]
				}
			}
			modes = append(modes, d)
		}
		dmg[id] = opts.Combine.fold(modes)
	}
	return dmg
}
