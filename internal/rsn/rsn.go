// Package rsn models Reconfigurable Scan Networks (RSNs) as standardized
// by IEEE Std 1687 and IEEE Std 1149.1.
//
// An RSN is a directed acyclic graph between a primary scan-in and a
// primary scan-out port. Vertices are scan primitives: scan segments
// (shift-register slices that host embedded instruments), scan
// multiplexers (which select one of several incoming branches based on a
// control value), and fan-outs (pure wiring splits). Segment Insertion
// Bits (SIBs) are modeled, following the paper, as the combination of a
// one-bit scan segment and a multiplexer that either inserts a gated
// sub-network into the active path or bypasses it.
//
// The package provides the data model, a hierarchical Builder that
// constructs well-formed series-parallel networks, structural validation,
// and small graph utilities used by the analysis packages.
package rsn

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a vertex inside a Network. IDs are dense indices
// assigned in creation order; None marks the absence of a node.
type NodeID int32

// None is the null NodeID.
const None NodeID = -1

// Kind enumerates the vertex kinds of an RSN graph.
type Kind uint8

// Vertex kinds. ScanIn and ScanOut are the primary ports; Segment, Mux
// and Fanout are the scan primitives of the paper's graph model.
const (
	KindScanIn Kind = iota
	KindScanOut
	KindSegment
	KindFanout
	KindMux
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindScanIn:
		return "scan-in"
	case KindScanOut:
		return "scan-out"
	case KindSegment:
		return "segment"
	case KindFanout:
		return "fanout"
	case KindMux:
		return "mux"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Instrument describes an embedded instrument attached to a scan segment
// together with its explicit criticality specification (Section IV-A of
// the paper): DamageObs is the damage weight do_i of losing the
// instrument's observability, DamageSet the weight ds_i of losing its
// settability.
type Instrument struct {
	Name string
	// DamageObs is the damage do_i incurred when the instrument can no
	// longer be observed through the network.
	DamageObs int64
	// DamageSet is the damage ds_i incurred when the instrument can no
	// longer be set (controlled) through the network.
	DamageSet int64
	// CriticalObs marks the instrument as important for observation: its
	// unobservability may cause a system failure. The spec package
	// guarantees such weights dominate the sum of all uncritical weights.
	CriticalObs bool
	// CriticalSet marks the instrument as important for control.
	CriticalSet bool
}

// Control describes the source of a multiplexer's address control port.
// If Source is None, the select value is driven by an external, assumed
// fault-robust controller (for example a dedicated TAP data register).
// Otherwise the select value is read from Width bits starting at bit Bit
// of the update register of the Source segment.
type Control struct {
	Source NodeID
	Bit    int
	Width  int
}

// External returns a Control driven by an external robust controller.
func External() Control { return Control{Source: None} }

// Node is a vertex of the RSN graph.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Length is the number of shift-register bits of a segment (1 for a
	// SIB register); zero for non-segment nodes.
	Length int
	// Instr is the instrument hosted by a segment, if any.
	Instr *Instrument
	// Ctrl is the control source of a multiplexer.
	Ctrl Control
	// SIB is true for the two component nodes of a Segment Insertion
	// Bit: its one-bit register segment and its insertion multiplexer.
	SIB bool
	// Partner links the two components of a SIB to each other
	// (register <-> mux); None otherwise.
	Partner NodeID
	// Hardened marks a primitive protected against permanent faults by
	// the selective-hardening synthesis; faults in hardened primitives
	// are avoided. Hardening does not change the network topology.
	Hardened bool
}

// IsPrimitive reports whether the node belongs to the fault universe of
// the criticality analysis: scan segments and scan multiplexers (SIB
// components included). Fan-outs and the primary ports carry no storage
// or selection logic and are excluded, matching the paper's primitives.
func (n *Node) IsPrimitive() bool {
	return n.Kind == KindSegment || n.Kind == KindMux
}

// Network is an RSN graph. Construct it with a Builder; direct mutation
// of an existing network is intentionally not exposed beyond AddEdge and
// AddNode, which the icl package and tests use to assemble raw graphs.
type Network struct {
	Name    string
	ScanIn  NodeID
	ScanOut NodeID

	nodes []Node
	// succ and pred locate each node's successor and predecessor list
	// (for a mux, pred order is the port order) in pool, which holds
	// every list of the network so that building one allocates per
	// network instead of per node.
	succ, pred []span
	pool       []NodeID
}

// span is one adjacency list: pool[off:off+len], with room to grow in
// place up to off+cap.
type span struct{ off, len, cap int32 }

// NewNetwork returns an empty network with the given name and no nodes.
// Most callers should use NewBuilder instead.
func NewNetwork(name string) *Network {
	return &Network{Name: name, ScanIn: None, ScanOut: None}
}

// AddNode appends a node and returns its ID. The node's ID field is set
// by the network.
func (n *Network) AddNode(node Node) NodeID {
	id := NodeID(len(n.nodes))
	node.ID = id
	if node.Partner == 0 && !node.SIB {
		node.Partner = None
	}
	n.nodes = append(n.nodes, node)
	n.succ = append(n.succ, span{})
	n.pred = append(n.pred, span{})
	switch node.Kind {
	case KindScanIn:
		n.ScanIn = id
	case KindScanOut:
		n.ScanOut = id
	}
	return id
}

// Grow reserves room for nodes more nodes and their adjacency lists,
// so that adding them does not reallocate the network's storage. Like
// slices.Grow, it changes no content and panics if nodes is negative.
func (n *Network) Grow(nodes int) {
	n.nodes = slices.Grow(n.nodes, nodes)
	n.succ = slices.Grow(n.succ, nodes)
	n.pred = slices.Grow(n.pred, nodes)
	// One successor and one predecessor entry per node, plus slack for
	// the lists of fan-outs and multiplexers, which hold two or more.
	n.pool = slices.Grow(n.pool, 3*nodes)
}

// AddEdge adds a directed edge. For multiplexer targets the insertion
// order of incoming edges defines the port order.
func (n *Network) AddEdge(from, to NodeID) {
	n.push(&n.succ[from], to)
	n.push(&n.pred[to], from)
}

// push appends v to the list s. A full list grows in place when it ends
// the pool and otherwise moves to the end with twice its capacity. The
// slots a list leaves behind are never written again, so a slice handed
// out by Succ or Pred stays a valid snapshot of its list.
func (n *Network) push(s *span, v NodeID) {
	if s.len == s.cap {
		end := int32(len(n.pool))
		if s.off+s.cap != end {
			n.pool = append(n.pool, n.pool[s.off:s.off+s.len]...)
			s.off = end
		}
		more := max(s.cap, 1)
		n.pool = slices.Grow(n.pool, int(more))[:len(n.pool)+int(more)]
		s.cap += more
	}
	n.pool[s.off+s.len] = v
	s.len++
}

// list returns the entries of s, capped so that appending to the
// result copies it instead of overwriting the list stored after it.
func (n *Network) list(s span) []NodeID {
	end := s.off + s.len
	return n.pool[s.off:end:end]
}

// NumNodes returns the number of vertices.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Node returns the vertex with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// Succ returns the successor list of id. The returned slice must not be
// modified.
func (n *Network) Succ(id NodeID) []NodeID { return n.list(n.succ[id]) }

// Pred returns the predecessor list of id (port order for a mux). The
// returned slice must not be modified.
func (n *Network) Pred(id NodeID) []NodeID { return n.list(n.pred[id]) }

// Nodes calls fn for every node in ID order.
func (n *Network) Nodes(fn func(*Node)) {
	for i := range n.nodes {
		fn(&n.nodes[i])
	}
}

// Primitives returns the IDs of all scan primitives (segments and
// multiplexers) in ID order. This is the fault universe and also the
// hardening candidate set of the selective-hardening problem.
func (n *Network) Primitives() []NodeID {
	count := 0
	for i := range n.nodes {
		if n.nodes[i].IsPrimitive() {
			count++
		}
	}
	out := make([]NodeID, 0, count)
	for i := range n.nodes {
		if n.nodes[i].IsPrimitive() {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Instruments returns the IDs of all segments hosting an instrument, in
// ID order.
func (n *Network) Instruments() []NodeID {
	hosts := func(nd *Node) bool { return nd.Kind == KindSegment && nd.Instr != nil }
	count := 0
	for i := range n.nodes {
		if hosts(&n.nodes[i]) {
			count++
		}
	}
	out := make([]NodeID, 0, count)
	for i := range n.nodes {
		if hosts(&n.nodes[i]) {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Stats summarizes the structural size of a network.
type Stats struct {
	Segments    int // scan segments, SIB registers included
	Muxes       int // scan multiplexers, SIB muxes included
	SIBs        int // SIB pairs
	Fanouts     int
	Instruments int
	TotalBits   int // sum of segment lengths
	Edges       int
}

// Stats computes structural statistics.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.nodes {
		nd := &n.nodes[i]
		switch nd.Kind {
		case KindSegment:
			s.Segments++
			s.TotalBits += nd.Length
			if nd.Instr != nil {
				s.Instruments++
			}
			if nd.SIB {
				s.SIBs++
			}
		case KindMux:
			s.Muxes++
		case KindFanout:
			s.Fanouts++
		}
		s.Edges += int(n.succ[i].len)
	}
	return s
}

// Lookup returns the ID of the node with the given name, or None. Names
// are not required to be unique; the first match in ID order wins.
func (n *Network) Lookup(name string) NodeID {
	for i := range n.nodes {
		if n.nodes[i].Name == name {
			return NodeID(i)
		}
	}
	return None
}

// TopoOrder returns the node IDs in a topological order of the DAG. It
// returns an error if the graph contains a cycle. Kahn's algorithm runs
// on int32 in-degrees, and its queue, never popped, is the order.
func (n *Network) TopoOrder() ([]NodeID, error) {
	indeg := make([]int32, len(n.nodes))
	order := make([]NodeID, 0, len(n.nodes))
	for i := range n.nodes {
		if indeg[i] = n.pred[i].len; indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, t := range n.Succ(order[head]) {
			if indeg[t]--; indeg[t] == 0 {
				order = append(order, t)
			}
		}
	}
	if len(order) != len(n.nodes) {
		return nil, fmt.Errorf("rsn: network %q contains a cycle", n.Name)
	}
	return order, nil
}

// PortOf returns the input port index of the edge from pred into mux, or
// -1 if pred is not a predecessor of mux.
func (n *Network) PortOf(mux, pred NodeID) int {
	for i, p := range n.Pred(mux) {
		if p == pred {
			return i
		}
	}
	return -1
}

// AllPaths enumerates every scan-in to scan-out path as node ID slices.
// Intended for tests on small networks; the number of paths can be
// exponential in the number of fan-outs.
func (n *Network) AllPaths() [][]NodeID {
	var out [][]NodeID
	var cur []NodeID
	var rec func(v NodeID)
	rec = func(v NodeID) {
		cur = append(cur, v)
		if v == n.ScanOut {
			cp := make([]NodeID, len(cur))
			copy(cp, cur)
			out = append(out, cp)
		} else {
			for _, t := range n.Succ(v) {
				rec(t)
			}
		}
		cur = cur[:len(cur)-1]
	}
	rec(n.ScanIn)
	return out
}

// SortedNames returns the names of the given node IDs, sorted. A helper
// for deterministic test output.
func (n *Network) SortedNames(ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = n.nodes[id].Name
	}
	sort.Strings(out)
	return out
}
