// Package faults implements the fault model and the exact criticality
// analysis of Sections IV-B and IV-C of the paper.
//
// The fault universe consists of permanent faults in scan primitives:
// a scan segment may break (its shift path loses integrity), and a scan
// multiplexer may be stuck at one of its input ports ("stuck-at-id").
// Segment Insertion Bits combine both: their register behaves like a
// segment — and, because the register drives the insertion multiplexer,
// a broken register additionally makes the gated sub-network
// unprogrammable — while their multiplexer's stuck-at-asserted /
// stuck-at-deasserted faults are the two stuck-at-port faults.
//
// For every primitive j the analysis computes the damage
//
//	d_j = Σ_i do_i·y_ij + Σ_i ds_i·z_ij
//
// where y_ij (z_ij) indicates that instrument i loses observability
// (settability) when j is defective. The computation runs on the binary
// decomposition tree in a single traversal (O(tree size)); a graph-based
// reference implementation is provided for cross-checking.
package faults

import (
	"fmt"

	"rsnrobust/internal/rsn"
)

// Kind enumerates fault kinds.
type Kind uint8

// Fault kinds. SegmentBreak removes a segment vertex from the graph
// model; MuxStuck pins a multiplexer to one input port.
const (
	SegmentBreak Kind = iota
	MuxStuck
)

// String returns a short kind name.
func (k Kind) String() string {
	switch k {
	case SegmentBreak:
		return "segment-break"
	case MuxStuck:
		return "mux-stuck"
	default:
		return fmt.Sprintf("fault-kind(%d)", uint8(k))
	}
}

// Fault is a single permanent fault in a scan primitive.
type Fault struct {
	Kind Kind
	// Node is the affected primitive.
	Node rsn.NodeID
	// Port is the input port a stuck multiplexer permanently selects
	// (MuxStuck only). For a SIB mux, port 0 is "stuck-at-deasserted"
	// and port 1 is "stuck-at-asserted".
	Port int
}

// String formats the fault with the node's name resolved against net.
func (f Fault) String(net *rsn.Network) string {
	name := net.Node(f.Node).Name
	switch f.Kind {
	case SegmentBreak:
		return fmt.Sprintf("break(%s)", name)
	case MuxStuck:
		return fmt.Sprintf("stuck(%s@%d)", name, f.Port)
	default:
		return fmt.Sprintf("%v(%s)", f.Kind, name)
	}
}

// FaultsOf enumerates the fault modes of one primitive.
func FaultsOf(net *rsn.Network, id rsn.NodeID) []Fault {
	nd := net.Node(id)
	switch nd.Kind {
	case rsn.KindSegment:
		return []Fault{{Kind: SegmentBreak, Node: id}}
	case rsn.KindMux:
		out := make([]Fault, len(net.Pred(id)))
		for p := range out {
			out[p] = Fault{Kind: MuxStuck, Node: id, Port: p}
		}
		return out
	default:
		return nil
	}
}

// Universe enumerates every single fault of every primitive in the
// network, in primitive ID order.
func Universe(net *rsn.Network) []Fault {
	var out []Fault
	for _, id := range net.Primitives() {
		out = append(out, FaultsOf(net, id)...)
	}
	return out
}

// Combine selects how the per-fault-mode damages of one primitive are
// folded into the primitive's single damage value d_j.
type Combine uint8

// Combine policies. CombineMax (default) takes the worst fault mode,
// CombineSum adds all modes, CombineMean averages them (integer
// division).
const (
	CombineMax Combine = iota
	CombineSum
	CombineMean
)

// String returns "max", "sum" or "mean".
func (c Combine) String() string {
	switch c {
	case CombineMax:
		return "max"
	case CombineSum:
		return "sum"
	case CombineMean:
		return "mean"
	default:
		return fmt.Sprintf("combine(%d)", uint8(c))
	}
}

func (c Combine) fold(vals []int64) int64 {
	if len(vals) == 0 {
		return 0
	}
	sum, worst := int64(0), vals[0]
	for _, v := range vals {
		sum += v
		if v > worst {
			worst = v
		}
	}
	return c.of(sum, worst, len(vals))
}

// of folds n > 0 fault-mode damages given their sum and their maximum.
func (c Combine) of(sum, worst int64, n int) int64 {
	switch c {
	case CombineSum:
		return sum
	case CombineMean:
		return sum / int64(n)
	default: // CombineMax
		return worst
	}
}
