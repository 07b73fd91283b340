package sptree

import (
	"errors"
	"fmt"
	"slices"

	"rsnrobust/internal/rsn"
)

// ErrNotSeriesParallel is returned by Build when the network graph is
// not hierarchically series-parallel. The paper's preprocessing ([19])
// inserts virtual vertices for such spots; all networks produced by the
// rsn.Builder and the benchmark generators are series-parallel by
// construction, so this implementation reports the offending spot
// instead of rewriting the graph.
var ErrNotSeriesParallel = errors.New("sptree: network is not series-parallel")

// Build constructs the binary decomposition tree of a series-parallel
// RSN. The network must be valid (rsn.Validate).
func Build(net *rsn.Network) (*Tree, error) {
	b := builder{Tree: &Tree{
		net:    net,
		arena:  make([]node, 0, 2*net.NumNodes()),
		leafOf: make([]NodeRef, net.NumNodes()),
	}}
	for i := range b.leafOf {
		b.leafOf[i] = NilRef
	}
	b.empty = b.alloc(node{op: OpEmpty})

	start := net.Succ(net.ScanIn)[0]
	root, end, _, err := b.chain(start)
	if err != nil {
		return nil, err
	}
	if end != net.ScanOut {
		return nil, fmt.Errorf("%w: trunk chain ends at %q instead of scan-out",
			ErrNotSeriesParallel, net.Node(end).Name)
	}
	b.root = root
	return b.Tree, nil
}

// builder parses a network into its tree. The chains being parsed share
// one element stack: a chain pushes its elements above those of the
// chains that enclose it and pops them once it has combined them.
type builder struct {
	*Tree
	stack []NodeRef
}

// chain parses a series chain starting at v. It stops when it reaches a
// multiplexer that closes an enclosing parallel section (returned as
// end) or the scan-out port. tail is the last graph node consumed by the
// chain (rsn.None for an empty chain), used to map branches to mux ports.
func (b *builder) chain(v rsn.NodeID) (ref NodeRef, end rsn.NodeID, tail rsn.NodeID, err error) {
	base := len(b.stack)
	tail = rsn.None
	for {
		nd := b.net.Node(v)
		switch nd.Kind {
		case rsn.KindScanOut, rsn.KindMux:
			// A mux reached while walking a chain is the join of the
			// enclosing parallel section (nested sections are consumed
			// whole by the fanout case below).
			ref = b.series(b.stack[base:])
			b.stack = b.stack[:base]
			return ref, v, tail, nil
		case rsn.KindSegment:
			b.stack = append(b.stack, b.leaf(v))
			tail = v
			v = b.net.Succ(v)[0]
		case rsn.KindFanout:
			sec, join, err := b.parallel(v)
			if err != nil {
				return NilRef, rsn.None, rsn.None, err
			}
			b.stack = append(b.stack, sec, b.leafOf[join])
			tail = join
			v = b.net.Succ(join)[0]
		default:
			return NilRef, rsn.None, rsn.None, fmt.Errorf(
				"%w: unexpected %s node %q inside a chain",
				ErrNotSeriesParallel, nd.Kind, nd.Name)
		}
	}
}

// parallel parses the parallel section opened by fanout f: every branch
// must reconverge at a single multiplexer. It places the branch
// subtrees in the tree's branch slab in port order, and returns the P
// subtree and the closing mux, whose leaf it adds after the P subtree.
func (b *builder) parallel(f rsn.NodeID) (NodeRef, rsn.NodeID, error) {
	join := rsn.None
	var off, ports int
	found, bypasses := 0, 0
	for _, h := range b.net.Succ(f) {
		var ref NodeRef
		var end, tail rsn.NodeID
		if b.net.Node(h).Kind == rsn.KindMux {
			// Direct bypass wire from the fanout to the join mux.
			ref, end, tail = b.empty, h, f
		} else {
			var err error
			ref, end, tail, err = b.chain(h)
			if err != nil {
				return NilRef, rsn.None, err
			}
			if b.net.Node(end).Kind != rsn.KindMux {
				return NilRef, rsn.None, fmt.Errorf(
					"%w: branch of fanout %q reaches %q instead of a mux",
					ErrNotSeriesParallel, b.net.Node(f).Name, b.net.Node(end).Name)
			}
		}
		if join == rsn.None {
			// The first branch names the join: reserve its port list.
			join = end
			off, ports = len(b.branches), len(b.net.Pred(join))
			b.branches = slices.Grow(b.branches, ports)[:off+ports]
		} else if join != end {
			return NilRef, rsn.None, fmt.Errorf(
				"%w: fanout %q branches reconverge at both %q and %q",
				ErrNotSeriesParallel, b.net.Node(f).Name,
				b.net.Node(join).Name, b.net.Node(end).Name)
		}
		port := b.net.PortOf(end, tail)
		if tail == f {
			// Several bypass wires map to successive fanout->mux ports.
			port = nthPortOf(b.net, end, f, bypasses)
			bypasses++
		}
		if port < 0 {
			return NilRef, rsn.None, fmt.Errorf(
				"%w: branch tail %q is not a port of mux %q",
				ErrNotSeriesParallel, b.net.Node(tail).Name, b.net.Node(end).Name)
		}
		b.branches[off+port] = ref
		found++
	}
	if found != ports {
		return NilRef, rsn.None, fmt.Errorf(
			"%w: mux %q has %d ports but fanout %q supplies %d branches",
			ErrNotSeriesParallel, b.net.Node(join).Name, ports, b.net.Node(f).Name, found)
	}
	sec := b.parallelCombine(b.branches[off : off+ports])
	leaf := b.leaf(join)
	b.arena[leaf].l, b.arena[leaf].r = NodeRef(off), NodeRef(ports)
	b.muxes++
	return sec, join, nil
}

// nthPortOf returns the port index of the n-th occurrence (0-based) of
// pred among mux's predecessors.
func nthPortOf(net *rsn.Network, mux, pred rsn.NodeID, n int) int {
	for i, p := range net.Pred(mux) {
		if p == pred {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return -1
}
