package benchnets

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rsnrobust/internal/rsn"
)

// Shape selects the topology class of a reconstructed benchmark.
type Shape uint8

// Topology classes of the ITC'16 / DATE'19 benchmark suites.
const (
	// ShapeFlat is a single chain of SIBs (TreeFlat, TreeFlat_Ex).
	ShapeFlat Shape = iota
	// ShapeBalanced nests SIBs as a balanced binary tree (TreeBalanced).
	ShapeBalanced
	// ShapeUnbalanced nests SIBs as a linear chain of sub-networks
	// (TreeUnbalanced).
	ShapeUnbalanced
	// ShapeSoC is a two-level system-on-chip wrapper: top-level modules
	// behind plain bypass multiplexers, module-internal gating by SIBs
	// (the ITC'02-derived networks q12710 ... p93791).
	ShapeSoC
	// ShapeMBIST is the three-level memory-BIST hierarchy: controller
	// SIBs containing group SIBs containing memory-interface SIBs.
	ShapeMBIST
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeFlat:
		return "flat"
	case ShapeBalanced:
		return "balanced"
	case ShapeUnbalanced:
		return "unbalanced"
	case ShapeSoC:
		return "soc"
	case ShapeMBIST:
		return "mbist"
	default:
		return fmt.Sprintf("shape(%d)", uint8(s))
	}
}

// SizedOptions requests a benchmark network with exact primitive counts.
type SizedOptions struct {
	Name string
	// Segments and Muxes are the exact primitive counts to produce
	// (Table I columns 1-2).
	Segments, Muxes int
	Shape           Shape
	// Controllers and Groups set the first-level and second-level
	// fan-out of the MBIST hierarchy (from the benchmark name
	// MBIST_<controllers>_<groups>_<memories>).
	Controllers, Groups int
	// Seed drives segment-length jitter and distribution choices.
	Seed int64
	// MinSegLen/MaxSegLen bound instrument segment lengths (defaults 4
	// and 16; SIB registers are always one bit).
	MinSegLen, MaxSegLen int
}

// plan is an abstract hierarchy node rendered into builder calls: one
// section (fan-out, chain, mux). Leaves have no children; a node's
// children are a run of the generator's plan slab.
type plan struct {
	sib      bool // true: SIB gating the sub-network; false: bypass mux
	children []plan
	// instr is the number of instrument segments placed in this node's
	// sub-network chain, interleaved before the children.
	instr int
}

// Sized reconstructs a benchmark with exactly the requested counts in
// the requested shape. Following the counting convention of the ITC'16
// suite (and the parametric MBIST family formula, DESIGN.md §6),
// Segments counts the instrument-carrying data segments; the one-bit SIB
// registers are control primitives and are not included (they do count
// toward hardening candidates and the fault universe). Every instrument
// sits inside a SIB-gated branch, so single faults are isolated by the
// surrounding control primitives as in the original benchmark networks.
func Sized(opt SizedOptions) (*rsn.Network, error) {
	if opt.Muxes < 1 {
		return nil, fmt.Errorf("benchnets: %q needs at least one multiplexer", opt.Name)
	}
	if opt.Segments < 1 {
		return nil, fmt.Errorf("benchnets: %q needs at least one data segment", opt.Name)
	}
	if opt.MinSegLen <= 0 {
		opt.MinSegLen = 4
	}
	if opt.MaxSegLen < opt.MinSegLen {
		opt.MaxSegLen = opt.MinSegLen + 12
	}

	// Every plan node is one section, so the slab holds exactly Muxes.
	g := &sizedGen{opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), slab: make([]plan, opt.Muxes)}
	var roots []plan
	var err error
	switch opt.Shape {
	case ShapeFlat:
		roots = g.planFlat()
	case ShapeBalanced:
		roots = g.planBalanced()
	case ShapeUnbalanced:
		roots = g.planUnbalanced()
	case ShapeSoC:
		roots = g.planSoC()
	case ShapeMBIST:
		roots, err = g.planMBIST()
	default:
		return nil, fmt.Errorf("benchnets: unknown shape %v", opt.Shape)
	}
	if err != nil {
		return nil, err
	}

	b := rsn.NewBuilder(opt.Name)
	// Every section is a fan-out and a mux around its chain, so the
	// network holds exactly the segments, two nodes per mux and the two
	// ports, of which the scan-in already exists.
	b.Network().Grow(opt.Segments + 2*opt.Muxes + 1)
	g.instrs = make([]rsn.Instrument, opt.Segments)
	g.names = segmentNames(opt.Segments)
	g.sections = sectionNames(roots, opt.Muxes)
	g.render(b, roots)
	net := b.Finish()

	// Exactness is part of the contract: fail loudly if a plan is off.
	st := net.Stats()
	if st.Segments != opt.Segments || st.Muxes != opt.Muxes {
		return nil, fmt.Errorf("benchnets: %q generated %d segments / %d muxes, want %d / %d",
			opt.Name, st.Segments, st.Muxes, opt.Segments, opt.Muxes)
	}
	return net, nil
}

type sizedGen struct {
	opt  SizedOptions
	rng  *rand.Rand
	nSeg int
	nMux int
	// slab holds every plan node; take hands out its runs in order.
	slab []plan
	// instrs holds the instrument of every segment, in emission order.
	instrs []rsn.Instrument
	// names is "i1i2...iN"; the next segment's name starts at nameOff.
	names   string
	nameOff int
	// sections holds every section's fan-out name in render order (see
	// sectionNames); the next one starts at secOff.
	sections string
	secOff   int
}

// take returns the next n plan nodes of the slab.
func (g *sizedGen) take(n int) []plan {
	s := g.slab[:n:n]
	g.slab = g.slab[n:]
	return s
}

// segmentNames returns the names "i1" ... "in" concatenated, so that
// each segment's name is a substring of one string.
func segmentNames(n int) string {
	var sb strings.Builder
	sb.Grow(n * (1 + digitCount(n)))
	var digits [20]byte
	for i := 1; i <= n; i++ {
		sb.WriteByte('i')
		sb.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	return sb.String()
}

// sectionNames returns the fan-out names of the n sections of roots in
// render order (depth first, children in order) concatenated: section
// k is "sec<k>.fo" when it is a SIB and "m<k>.fo" when it is a bypass
// mux, and its mux name is the same without ".fo".
func sectionNames(roots []plan, n int) string {
	var sb strings.Builder
	sb.Grow(n * (6 + digitCount(n)))
	k := 0
	var digits [20]byte
	var walk func([]plan)
	walk = func(nodes []plan) {
		for i := range nodes {
			k++
			if nodes[i].sib {
				sb.WriteString("sec")
			} else {
				sb.WriteByte('m')
			}
			sb.Write(strconv.AppendInt(digits[:0], int64(k), 10))
			sb.WriteString(".fo")
			walk(nodes[i].children)
		}
	}
	walk(roots)
	return sb.String()
}

// extra returns the number of instrument segments to distribute.
func (g *sizedGen) extra() int { return g.opt.Segments }

// part returns part i of total split into n > 0 non-negative parts
// that sum exactly to total, the remainder front-loaded.
func part(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// planFlat lays all SIBs on the trunk, sub-network chains holding the
// instrument segments.
func (g *sizedGen) planFlat() []plan {
	n := g.opt.Muxes
	roots := g.take(n)
	for i := range roots {
		roots[i] = plan{sib: true, instr: part(g.extra(), n, i)}
	}
	return roots
}

// planUnbalanced nests every SIB inside its predecessor's sub-network.
func (g *sizedGen) planUnbalanced() []plan {
	n := g.opt.Muxes
	chain := g.take(n)
	for i := range chain {
		chain[i] = plan{sib: true, instr: part(g.extra(), n, i)}
		if i+1 < n {
			chain[i].children = chain[i+1 : i+2 : i+2]
		}
	}
	return chain[:1]
}

// planBalanced builds a balanced binary tree of SIBs.
func (g *sizedGen) planBalanced() []plan {
	idx := 0
	var build func(node *plan, n int)
	build = func(node *plan, n int) {
		*node = plan{sib: true, instr: part(g.extra(), g.opt.Muxes, idx)}
		idx++
		n-- // this node
		if n > 0 {
			left := n / 2
			right := n - left
			if left > 0 {
				node.children = g.take(2)
				build(&node.children[0], left)
				build(&node.children[1], right)
			} else {
				node.children = g.take(1)
				build(&node.children[0], right)
			}
		}
	}
	root := g.take(1)
	build(&root[0], g.opt.Muxes)
	return root
}

// planSoC wraps modules behind plain bypass multiplexers; each module
// chain carries its share of SIB-gated instrument groups.
func (g *sizedGen) planSoC() []plan {
	modules := int(math.Round(math.Sqrt(float64(g.opt.Muxes))))
	if modules < 2 {
		modules = 2
	}
	if modules > g.opt.Muxes {
		modules = g.opt.Muxes
	}
	sibs := g.opt.Muxes - modules
	roots := g.take(modules)
	for mi := range roots {
		mod := &roots[mi]
		*mod = plan{sib: false}
		nSIB, nInstr := part(sibs, modules, mi), part(g.extra(), modules, mi)
		if nSIB == 0 {
			// Module without internal SIBs: instruments sit directly on
			// the module chain.
			mod.instr = nInstr
		} else {
			mod.children = g.take(nSIB)
			for si := range mod.children {
				mod.children[si] = plan{sib: true, instr: part(nInstr, nSIB, si)}
			}
		}
	}
	return roots
}

// planMBIST builds the three-level controller/group/memory hierarchy.
func (g *sizedGen) planMBIST() ([]plan, error) {
	a, b := g.opt.Controllers, g.opt.Groups
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("benchnets: %q: MBIST shape needs controllers and groups", g.opt.Name)
	}
	memories := g.opt.Muxes - a - a*b
	if memories < 0 {
		return nil, fmt.Errorf("benchnets: %q: %d muxes cannot host %d controllers and %d groups",
			g.opt.Name, g.opt.Muxes, a, a*b)
	}
	instrParts := maxInt(memories, 1)

	roots := g.take(a)
	mem := 0
	for ci := range roots {
		ctl := &roots[ci]
		*ctl = plan{sib: true, children: g.take(b)}
		for gi := range ctl.children {
			grp := &ctl.children[gi]
			*grp = plan{sib: true}
			if k := part(memories, a*b, ci*b+gi); k > 0 {
				grp.children = g.take(k)
			}
			for mi := range grp.children {
				node := &grp.children[mi]
				*node = plan{sib: true}
				if mem < instrParts {
					node.instr = part(g.extra(), instrParts, mem)
				}
				mem++
			}
			if memories == 0 && ci == 0 && gi == 0 {
				// Degenerate family member with no memory SIBs: all
				// instruments go into the first group.
				grp.instr = g.extra()
			}
		}
	}
	return roots, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int { return max(a, b) }

// render walks the plan and emits builder calls. Instrument segments of
// a node are interleaved with its children along the sub-network chain.
//
// Every section is rendered as a bypassable segment-mux unit steered by
// a fault-robust external controller — the network style of the DATE'19
// benchmark set ([23] and the TODAES access model), which the published
// damage figures of Table I correspond to: a fault inside a section is
// isolated there, because the section can always be deselected. In-path
// SIB control registers (rsn.Builder.SIB) remain part of the general
// model and are exercised by the fixtures and the analysis options.
func (g *sizedGen) render(b *rsn.Builder, nodes []plan) {
	for i := range nodes {
		n := &nodes[i]
		g.nMux++
		prefix := 1 // "m"
		if n.sib {
			prefix = 3 // "sec"
		}
		end := g.secOff + prefix + digitCount(g.nMux) + len(".fo")
		fo := g.sections[g.secOff:end]
		g.secOff = end
		bs := b.Fork(fo, 2)
		g.renderChain(bs.Branch(0), n)
		// Branch 1 stays empty: the bypass wire.
		bs.Join(fo[:len(fo)-len(".fo")], rsn.External())
	}
}

// renderChain emits a node's sub-network: its instrument segments
// interleaved with its children.
func (g *sizedGen) renderChain(sb *rsn.Builder, n *plan) {
	ni := n.instr
	nc := len(n.children)
	slots := max(ni, nc)
	ii, ci := 0, 0
	for s := 0; s < slots; s++ {
		if ii < ni {
			g.emitInstrument(sb)
			ii++
		}
		if ci < nc {
			g.render(sb, n.children[ci:ci+1])
			ci++
		}
	}
}

func (g *sizedGen) emitInstrument(sb *rsn.Builder) {
	g.nSeg++
	length := g.opt.MinSegLen
	if span := g.opt.MaxSegLen - g.opt.MinSegLen; span > 0 {
		length += g.rng.Intn(span + 1)
	}
	end := g.nameOff + 1 + digitCount(g.nSeg)
	name := g.names[g.nameOff:end]
	g.nameOff = end
	in := &g.instrs[g.nSeg-1]
	in.Name = name
	sb.Segment(name, length, in)
}

// digitCount returns the number of decimal digits of v > 0.
func digitCount(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}
