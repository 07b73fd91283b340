// Package sptree builds binary decomposition trees for series-parallel
// Reconfigurable Scan Networks.
//
// Following Section III of the paper, an RSN graph is decomposed into
// nested series ("S") and parallel ("P") compositions. Leaves are the
// scan primitives (segments and multiplexers); every parallel section is
// closed by its reconvergence multiplexer, which appears as a leaf in
// series directly after the P node it closes. The tree enables the
// hierarchical criticality analysis of Section IV: subtree instrument
// weights are annotated bottom-up and per-primitive damages are computed
// in a single traversal.
//
// Series composition is associative for every computation performed on
// the tree, so chains are combined into balanced binary S-trees; this
// keeps the tree depth logarithmic in the chain length without changing
// any analysis result.
package sptree

import (
	"fmt"
	"strings"

	"rsnrobust/internal/rsn"
)

// Op is the operation of a decomposition-tree node.
type Op uint8

// Tree node operations. OpEmpty represents an empty branch (a pure
// bypass wire, as in a deasserted SIB path).
const (
	OpEmpty Op = iota
	OpLeaf
	OpSeries
	OpParallel
)

// String returns "E", "L", "S" or "P".
func (o Op) String() string {
	switch o {
	case OpEmpty:
		return "E"
	case OpLeaf:
		return "L"
	case OpSeries:
		return "S"
	case OpParallel:
		return "P"
	}
	return "?"
}

// NodeRef indexes a node inside the tree's arena.
type NodeRef int32

// NilRef is the null NodeRef.
const NilRef NodeRef = -1

type node struct {
	op   Op
	prim rsn.NodeID // OpLeaf: the primitive
	// l and r are the children of an OpSeries or OpParallel node. The
	// leaf of a multiplexer that closes a parallel section reuses them
	// to locate its branch list: Tree.branches[l : l+r].
	l, r NodeRef
}

// Tree is a binary decomposition tree over a series-parallel RSN.
type Tree struct {
	net   *rsn.Network
	arena []node
	root  NodeRef
	// leafOf maps a primitive's NodeID to its leaf ref (NilRef for
	// non-primitive nodes such as fan-outs and ports).
	leafOf []NodeRef
	// branches holds, for every multiplexer, the subtree refs of the
	// parallel branches it closes, in port order, one list after the
	// other; the multiplexer's leaf locates its list.
	branches []NodeRef
	muxes    int // multiplexers with a branch list
	empty    NodeRef
}

// Network returns the network the tree was built from.
func (t *Tree) Network() *rsn.Network { return t.net }

// Root returns the root node ref.
func (t *Tree) Root() NodeRef { return t.root }

// Size returns the number of arena nodes.
func (t *Tree) Size() int { return len(t.arena) }

// OpOf returns the operation of ref.
func (t *Tree) OpOf(ref NodeRef) Op { return t.arena[ref].op }

// Children returns the children of a series or parallel node.
func (t *Tree) Children(ref NodeRef) (l, r NodeRef) {
	return t.arena[ref].l, t.arena[ref].r
}

// PrimOf returns the primitive of a leaf node.
func (t *Tree) PrimOf(ref NodeRef) rsn.NodeID { return t.arena[ref].prim }

// LeafOf returns the leaf ref of a primitive, or NilRef.
func (t *Tree) LeafOf(id rsn.NodeID) NodeRef { return t.leafOf[id] }

// Branches returns the parallel branch subtrees closed by mux, in port
// order, or nil if mux closes no section. Empty branches map to the
// shared empty node. The returned slice must not be modified.
func (t *Tree) Branches(mux rsn.NodeID) []NodeRef {
	leaf := t.leafOf[mux]
	if leaf == NilRef || t.arena[leaf].r == 0 {
		return nil
	}
	n := t.arena[leaf]
	return t.branches[n.l : n.l+n.r : n.l+n.r]
}

// Muxes returns the IDs of all multiplexers that close a parallel
// section (every mux, in a well-formed SP network), in ID order.
func (t *Tree) Muxes() []rsn.NodeID {
	out := make([]rsn.NodeID, 0, t.muxes)
	for id := range t.leafOf {
		if t.Branches(rsn.NodeID(id)) != nil {
			out = append(out, rsn.NodeID(id))
		}
	}
	return out
}

// Depth returns the height of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int {
	depth := make([]int32, len(t.arena))
	max := int32(0)
	for i := range t.arena { // arena order is child-before-parent
		n := &t.arena[i]
		d := int32(1)
		if n.op == OpSeries || n.op == OpParallel {
			d = 1 + max32(depth[n.l], depth[n.r])
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return int(max)
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// String renders the tree in the nested S/P notation of the paper's
// Fig. 3, e.g. "S(S(L(c0),P(...)),L(m0))". Only suitable for small trees.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, t.root)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, ref NodeRef) {
	n := &t.arena[ref]
	switch n.op {
	case OpEmpty:
		b.WriteString("E")
	case OpLeaf:
		fmt.Fprintf(b, "L(%s)", t.net.Node(n.prim).Name)
	default:
		b.WriteString(n.op.String())
		b.WriteString("(")
		t.render(b, n.l)
		b.WriteString(",")
		t.render(b, n.r)
		b.WriteString(")")
	}
}

func (t *Tree) alloc(n node) NodeRef {
	t.arena = append(t.arena, n)
	return NodeRef(len(t.arena) - 1)
}

func (t *Tree) leaf(id rsn.NodeID) NodeRef {
	ref := t.alloc(node{op: OpLeaf, prim: id})
	t.leafOf[id] = ref
	return ref
}

// series combines chain elements into a balanced binary S-tree.
func (t *Tree) series(elems []NodeRef) NodeRef {
	switch len(elems) {
	case 0:
		return t.empty
	case 1:
		return elems[0]
	}
	mid := len(elems) / 2
	l := t.series(elems[:mid])
	r := t.series(elems[mid:])
	return t.alloc(node{op: OpSeries, l: l, r: r})
}

// parallelCombine combines branch subtrees into a binary P-tree.
func (t *Tree) parallelCombine(brs []NodeRef) NodeRef {
	switch len(brs) {
	case 0:
		return t.empty
	case 1:
		// Singleton of a recursive split: the enclosing P node already
		// provides the fault-isolation boundary.
		return brs[0]
	}
	mid := len(brs) / 2
	l := t.parallelCombine(brs[:mid])
	r := t.parallelCombine(brs[mid:])
	return t.alloc(node{op: OpParallel, l: l, r: r})
}
