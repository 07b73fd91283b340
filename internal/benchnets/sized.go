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

// plan is an abstract hierarchy node rendered into builder calls. A nil
// receiver never occurs; leaves have no children.
type plan struct {
	sib      bool // true: SIB gating the sub-network; false: bypass mux
	children []*plan
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

	g := &sizedGen{opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
	var roots []*plan
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
	opt   SizedOptions
	rng   *rand.Rand
	nSeg  int
	nSIB  int
	nMux  int
	nFork int
	// instrs holds the instrument of every segment, in emission order.
	instrs []rsn.Instrument
	// names is "i1i2...iN"; the next segment's name starts at nameOff.
	names   string
	nameOff int
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

// extra returns the number of instrument segments to distribute.
func (g *sizedGen) extra() int { return g.opt.Segments }

// share splits total into n non-negative parts that sum exactly to
// total, front-loading the remainder.
func share(total, n int) []int {
	out := make([]int, n)
	if n == 0 {
		return out
	}
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// planFlat lays all SIBs on the trunk, sub-network chains holding the
// instrument segments.
func (g *sizedGen) planFlat() []*plan {
	n := g.opt.Muxes
	shares := share(g.extra(), n)
	roots := make([]*plan, n)
	for i := range roots {
		roots[i] = &plan{sib: true, instr: shares[i]}
	}
	return roots
}

// planUnbalanced nests every SIB inside its predecessor's sub-network.
func (g *sizedGen) planUnbalanced() []*plan {
	n := g.opt.Muxes
	shares := share(g.extra(), n)
	var child *plan
	for i := n - 1; i >= 0; i-- {
		node := &plan{sib: true, instr: shares[i]}
		if child != nil {
			node.children = []*plan{child}
		}
		child = node
	}
	return []*plan{child}
}

// planBalanced builds a balanced binary tree of SIBs.
func (g *sizedGen) planBalanced() []*plan {
	shares := share(g.extra(), g.opt.Muxes)
	idx := 0
	var build func(n int) *plan
	build = func(n int) *plan {
		node := &plan{sib: true, instr: shares[idx]}
		idx++
		n-- // this node
		if n > 0 {
			left := n / 2
			right := n - left
			if left > 0 {
				node.children = append(node.children, build(left))
			}
			if right > 0 {
				node.children = append(node.children, build(right))
			}
		}
		return node
	}
	return []*plan{build(g.opt.Muxes)}
}

// planSoC wraps modules behind plain bypass multiplexers; each module
// chain carries its share of SIB-gated instrument groups.
func (g *sizedGen) planSoC() []*plan {
	modules := int(math.Round(math.Sqrt(float64(g.opt.Muxes))))
	if modules < 2 {
		modules = 2
	}
	if modules > g.opt.Muxes {
		modules = g.opt.Muxes
	}
	sibs := g.opt.Muxes - modules
	sibShare := share(sibs, modules)
	instrShare := share(g.extra(), modules)
	roots := make([]*plan, modules)
	for mi := range roots {
		mod := &plan{sib: false}
		inner := share(instrShare[mi], max(1, sibShare[mi]))
		if sibShare[mi] == 0 {
			// Module without internal SIBs: instruments sit directly on
			// the module chain.
			mod.instr = instrShare[mi]
		} else {
			for si := 0; si < sibShare[mi]; si++ {
				mod.children = append(mod.children, &plan{sib: true, instr: inner[si]})
			}
		}
		roots[mi] = mod
	}
	return roots
}

// planMBIST builds the three-level controller/group/memory hierarchy.
func (g *sizedGen) planMBIST() ([]*plan, error) {
	a, b := g.opt.Controllers, g.opt.Groups
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("benchnets: %q: MBIST shape needs controllers and groups", g.opt.Name)
	}
	memories := g.opt.Muxes - a - a*b
	if memories < 0 {
		return nil, fmt.Errorf("benchnets: %q: %d muxes cannot host %d controllers and %d groups",
			g.opt.Name, g.opt.Muxes, a, a*b)
	}
	memShare := share(memories, a*b)
	instrShare := share(g.extra(), maxInt(memories, 1))

	roots := make([]*plan, a)
	mem := 0
	for ci := 0; ci < a; ci++ {
		ctl := &plan{sib: true}
		for gi := 0; gi < b; gi++ {
			grp := &plan{sib: true}
			for mi := 0; mi < memShare[ci*b+gi]; mi++ {
				node := &plan{sib: true}
				if mem < len(instrShare) {
					node.instr = instrShare[mem]
				}
				mem++
				grp.children = append(grp.children, node)
			}
			if memories == 0 && ci == 0 && gi == 0 {
				// Degenerate family member with no memory SIBs: all
				// instruments go into the first group.
				grp.instr = g.extra()
			}
			ctl.children = append(ctl.children, grp)
		}
		roots[ci] = ctl
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
func (g *sizedGen) render(b *rsn.Builder, nodes []*plan) {
	for _, n := range nodes {
		g.nMux++
		name := fmt.Sprintf("m%d", g.nMux)
		if n.sib {
			name = fmt.Sprintf("sec%d", g.nMux)
		}
		bs := b.Fork(name+".fo", 2)
		g.renderChain(bs.Branch(0), n)
		// Branch 1 stays empty: the bypass wire.
		bs.Join(name, rsn.External())
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
