package rsn

import "fmt"

// Builder constructs well-formed series-parallel RSNs. A builder owns a
// chain cursor: every added primitive is appended in series after the
// previous one. Parallel sections are opened with Fork and closed with
// Join (which creates the reconvergence multiplexer); SIB creates the
// fanout/sub-network/mux/register combination of a Segment Insertion Bit
// in one call.
//
// The zero Builder is not usable; call NewBuilder.
type Builder struct {
	net    *Network
	cursor NodeID // last node of the chain, None for an empty branch
	headID NodeID // first node of the chain, None for an empty branch
	done   bool
}

// NewBuilder returns a builder for a new network with a fresh scan-in
// port as the chain head.
func NewBuilder(name string) *Builder {
	net := NewNetwork(name)
	si := net.AddNode(Node{Kind: KindScanIn, Name: "SI", Partner: None})
	return &Builder{net: net, cursor: si, headID: si}
}

// Network returns the network under construction. Useful for inspecting
// intermediate state; call Finish to complete the network.
func (b *Builder) Network() *Network { return b.net }

func (b *Builder) append(id NodeID) {
	if b.cursor != None {
		b.net.AddEdge(b.cursor, id)
	}
	if b.headID == None {
		b.headID = id
	}
	b.cursor = id
}

// Segment appends a scan segment of the given length. instr may be nil
// for pure control or routing registers. It returns the new node's ID.
func (b *Builder) Segment(name string, length int, instr *Instrument) NodeID {
	if length <= 0 {
		panic(fmt.Sprintf("rsn: segment %q must have positive length, got %d", name, length))
	}
	id := b.net.AddNode(Node{Kind: KindSegment, Name: name, Length: length, Instr: instr, Partner: None})
	b.append(id)
	return id
}

// BranchSet is an open parallel section created by Fork. Each branch is a
// sub-builder; Join closes the section with a multiplexer whose port i
// receives branch i.
type BranchSet struct {
	parent *Builder
	fanout NodeID
	// fixed holds Fork's branch builders in one slab. added holds the
	// branches NewBranch appends after them, each allocated on its own
	// so that the sub-builders it returned stay valid as the set grows.
	fixed []Builder
	added []*Builder
}

// Fork opens a parallel section with n branches, inserting a fanout node
// after the current chain position.
func (b *Builder) Fork(name string, n int) *BranchSet {
	if n < 2 {
		panic(fmt.Sprintf("rsn: fork %q needs at least 2 branches, got %d", name, n))
	}
	f := b.net.AddNode(Node{Kind: KindFanout, Name: name, Partner: None})
	b.append(f)
	bs := &BranchSet{parent: b, fanout: f, fixed: make([]Builder, n)}
	for i := range bs.fixed {
		bs.fixed[i] = Builder{net: b.net, cursor: None, headID: None}
	}
	return bs
}

// Branch returns the sub-builder for branch i. A branch left empty
// becomes a direct bypass wire from the fanout to the joining mux.
func (bs *BranchSet) Branch(i int) *Builder {
	if i < len(bs.fixed) {
		return &bs.fixed[i]
	}
	return bs.added[i-len(bs.fixed)]
}

// ForkAny opens a parallel section whose branch count is not known up
// front; add branches with BranchSet.NewBranch before Join. Used by
// parsers that discover the structure while reading.
func (b *Builder) ForkAny(name string) *BranchSet {
	f := b.net.AddNode(Node{Kind: KindFanout, Name: name, Partner: None})
	b.append(f)
	return &BranchSet{parent: b, fanout: f}
}

// NewBranch appends a fresh branch to a section opened with ForkAny and
// returns its sub-builder.
func (bs *BranchSet) NewBranch() *Builder {
	br := &Builder{net: bs.parent.net, cursor: None, headID: None}
	bs.added = append(bs.added, br)
	return br
}

// Join closes the parallel section with a multiplexer controlled by
// ctrl. Port i of the mux is fed by branch i (or directly by the fanout
// for an empty branch). It returns the mux ID and re-arms the parent
// builder's cursor after the mux.
func (bs *BranchSet) Join(name string, ctrl Control) NodeID {
	p := bs.parent
	m := p.net.AddNode(Node{Kind: KindMux, Name: name, Ctrl: ctrl, Partner: None})
	for i := range len(bs.fixed) + len(bs.added) {
		br := bs.Branch(i)
		if br.cursor == None { // empty branch: bypass wire
			p.net.AddEdge(bs.fanout, m)
		} else {
			p.net.AddEdge(bs.fanout, br.headID)
			p.net.AddEdge(br.cursor, m)
		}
	}
	p.cursor = m
	return m
}

// SIB appends a Segment Insertion Bit: a fanout, the gated sub-network
// (built by sub on a fresh branch builder), the insertion multiplexer
// (port 0 = bypass/deasserted, port 1 = sub-network/asserted) and the
// one-bit SIB register that drives the multiplexer. instr optionally
// attaches an instrument to the SIB register itself (used by flat SIB
// chains whose instruments are hosted directly in the SIB cells). It
// returns the (register, mux) node IDs.
func (b *Builder) SIB(name string, instr *Instrument, sub func(*Builder)) (reg, mux NodeID) {
	f := b.net.AddNode(Node{Kind: KindFanout, Name: name + ".fo", Partner: None})
	b.append(f)
	sb := &Builder{net: b.net, cursor: None, headID: None}
	if sub != nil {
		sub(sb)
	}
	mux = b.net.AddNode(Node{Kind: KindMux, Name: name + ".mux", SIB: true, Partner: None})
	b.net.AddEdge(f, mux) // port 0: bypass (deasserted)
	if sb.cursor == None {
		// Degenerate SIB gating an empty sub-network: the asserted port
		// is a second bypass wire.
		b.net.AddEdge(f, mux)
	} else {
		b.net.AddEdge(f, sb.headID)
		b.net.AddEdge(sb.cursor, mux) // port 1: sub-network (asserted)
	}
	reg = b.net.AddNode(Node{Kind: KindSegment, Name: name, Length: 1, Instr: instr, SIB: true, Partner: None})
	b.net.AddEdge(mux, reg)
	b.cursor = reg
	b.net.Node(reg).Partner = mux
	mn := b.net.Node(mux)
	mn.Partner = reg
	mn.Ctrl = Control{Source: reg, Bit: 0, Width: 1}
	return reg, mux
}

// Attach appends an already-created node to the builder's chain. It is
// the low-level hook for graph transformations that assemble structures
// the hierarchical API cannot express (for example the shared-branch
// redundancy of fault-tolerant RSN synthesis).
func (b *Builder) Attach(id NodeID) { b.append(id) }

// Continue repositions the chain cursor onto an existing node without
// adding an edge; the caller has already wired that node into the
// graph. Subsequent appends chain after it.
func (b *Builder) Continue(id NodeID) {
	if b.headID == None {
		b.headID = id
	}
	b.cursor = id
}

// DetachedBuilder returns a builder that writes additional nodes into
// an existing network with a fresh, unconnected chain. Combine with
// Attach and Bounds to splice the chain into the graph manually.
func DetachedBuilder(net *Network) *Builder {
	return &Builder{net: net, cursor: None, headID: None}
}

// Bounds returns the first and last node of the builder's chain, or
// (None, None) for an empty chain.
func (b *Builder) Bounds() (head, tail NodeID) { return b.headID, b.cursor }

// Finish appends the scan-out port and returns the completed network.
// The builder must not be used afterwards.
func (b *Builder) Finish() *Network {
	if b.done {
		panic("rsn: Finish called twice")
	}
	b.done = true
	so := b.net.AddNode(Node{Kind: KindScanOut, Name: "SO", Partner: None})
	b.append(so)
	return b.net
}
