// Package spec holds the explicit criticality specification of an RSN's
// instruments (Section IV-A of the paper) together with the hardening
// cost model used by the selective-hardening optimization (Section V).
//
// Each instrument i carries a pair of non-negative damage weights:
// do_i, the damage of losing its observability, and ds_i, the damage of
// losing its settability. Each scan primitive j carries a hardening cost
// c_j. The package can derive a specification from designer-annotated
// rsn.Instrument values, or generate the randomized specification of the
// paper's experimental setup (Section VI): 70 % of the instruments get
// non-zero observability weights, 70 % non-zero settability weights,
// 10 % are marked important for observation and 10 % important for
// control, with critical weights at least as high as the sum of all
// uncritical weights.
package spec

import (
	"fmt"
	"math/rand"

	"rsnrobust/internal/rsn"
)

// Spec binds damage weights and hardening costs to the nodes of one
// network. All slices are indexed by rsn.NodeID; entries for nodes
// without an instrument (or outside the fault universe) are zero.
type Spec struct {
	// DObs[i] is do_i: the damage of losing instrument i's observability.
	DObs []int64
	// DSet[i] is ds_i: the damage of losing instrument i's settability.
	DSet []int64
	// Cost[j] is c_j: the cost of hardening primitive j against
	// permanent faults.
	Cost []int64
}

// CostModel maps primitives to hardening costs. Hardening replicates or
// up-sizes the primitive's cells, so the cost scales with the number of
// storage cells for segments and is a small constant for a multiplexer.
type CostModel struct {
	// PerSegmentBit is the hardening cost per shift-register bit.
	PerSegmentBit int64
	// PerMux is the hardening cost of a scan multiplexer.
	PerMux int64
}

// DefaultCostModel hardens a register bit at cost 1 and a multiplexer at
// cost 2 (selection logic plus its local control buffer).
var DefaultCostModel = CostModel{PerSegmentBit: 1, PerMux: 2}

// New returns a zeroed specification sized for net with costs assigned
// from the cost model.
func New(net *rsn.Network, cm CostModel) *Spec {
	n := net.NumNodes()
	s := &Spec{
		DObs: make([]int64, n),
		DSet: make([]int64, n),
		Cost: make([]int64, n),
	}
	net.Nodes(func(nd *rsn.Node) {
		switch nd.Kind {
		case rsn.KindSegment:
			s.Cost[nd.ID] = cm.PerSegmentBit * int64(nd.Length)
		case rsn.KindMux:
			s.Cost[nd.ID] = cm.PerMux
		}
	})
	return s
}

// FromNetwork builds a specification from the designer-provided
// rsn.Instrument damage weights attached to the network's segments.
func FromNetwork(net *rsn.Network, cm CostModel) *Spec {
	s := New(net, cm)
	net.Nodes(func(nd *rsn.Node) {
		if nd.Kind == rsn.KindSegment && nd.Instr != nil {
			s.DObs[nd.ID] = nd.Instr.DamageObs
			s.DSet[nd.ID] = nd.Instr.DamageSet
		}
	})
	return s
}

// MaxCost returns the total cost of hardening every primitive
// (Table I column "Max. Cost").
func (s *Spec) MaxCost() int64 {
	var sum int64
	for _, c := range s.Cost {
		sum += c
	}
	return sum
}

// TotalObs returns the sum of all observability damage weights.
func (s *Spec) TotalObs() int64 { return sum(s.DObs) }

// TotalSet returns the sum of all settability damage weights.
func (s *Spec) TotalSet() int64 { return sum(s.DSet) }

func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// GenOptions parameterizes the randomized specification of Section VI.
type GenOptions struct {
	// Seed drives the deterministic pseudo-random assignment.
	Seed int64
	// FracObs / FracSet are the fractions of instruments receiving
	// non-zero observability / settability weights (paper: 0.70).
	FracObs, FracSet float64
	// FracCritObs / FracCritSet are the fractions of instruments marked
	// important for observation / control (paper: 0.10).
	FracCritObs, FracCritSet float64
	// WeightMax is the maximum uncritical damage weight; uncritical
	// weights are drawn uniformly from [1, WeightMax].
	WeightMax int64
	// Cost is the hardening cost model.
	Cost CostModel
}

// PaperGenOptions returns the experimental setup of Section VI with the
// given seed: 70 % / 70 % non-zero weights, 10 % / 10 % critical
// instruments. Uncritical weights are unit weights: the magnitudes of
// Table I (column 5 is dominated by the critical instruments' own
// faults, each critical weight being the sum of all uncritical ones)
// are only consistent with uncritical damage ~1 per instrument.
func PaperGenOptions(seed int64) GenOptions {
	return GenOptions{
		Seed:        seed,
		FracObs:     0.70,
		FracSet:     0.70,
		FracCritObs: 0.10,
		FracCritSet: 0.10,
		WeightMax:   1,
		Cost:        DefaultCostModel,
	}
}

// Generate produces a randomized specification for net following opt and
// writes the generated weights back into the network's rsn.Instrument
// values, so the network and the specification stay consistent.
func Generate(net *rsn.Network, opt GenOptions) (*Spec, error) {
	if opt.WeightMax <= 0 {
		return nil, fmt.Errorf("spec: WeightMax must be positive, got %d", opt.WeightMax)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"FracObs", opt.FracObs}, {"FracSet", opt.FracSet}, {"FracCritObs", opt.FracCritObs}, {"FracCritSet", opt.FracCritSet}} {
		if !(f.v >= 0 && f.v <= 1) { // also rejects NaN
			return nil, fmt.Errorf("spec: %s must be in [0, 1], got %v", f.name, f.v)
		}
	}
	s := New(net, opt.Cost)
	rng := rand.New(rand.NewSource(opt.Seed))
	instr := net.Instruments()
	if len(instr) == 0 {
		return s, nil
	}

	// draw picks round(frac·n) instrument positions: a prefix of the
	// permutation rng.Perm would return, built with its exact draws in
	// one buffer that every draw reuses.
	perm := make([]int32, len(instr))
	draw := func(frac float64) []int32 {
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = int32(i)
		}
		return perm[:int(float64(len(instr))*frac+0.5)]
	}
	for _, pi := range draw(opt.FracObs) {
		s.DObs[instr[pi]] = 1 + rng.Int63n(opt.WeightMax)
	}
	for _, pi := range draw(opt.FracSet) {
		s.DSet[instr[pi]] = 1 + rng.Int63n(opt.WeightMax)
	}

	// Critical instruments: their weight must be at least as high as the
	// sum of all uncritical weights (Section IV-A), so a single fault
	// hitting a critical instrument always dominates any set of
	// uncritical ones in the cost function. crit holds both directions'
	// flags by position in instr.
	const critObs, critSet = 1, 2
	crit := make([]byte, len(instr))
	markCritical := func(dst []int64, frac float64, flag byte) {
		for _, pi := range draw(frac) {
			crit[pi] |= flag
		}
		var uncrit int64
		for p, id := range instr {
			if crit[p]&flag == 0 {
				uncrit += dst[id]
			}
		}
		if uncrit == 0 {
			uncrit = 1
		}
		for p, id := range instr {
			if crit[p]&flag != 0 {
				dst[id] = uncrit
			}
		}
	}
	if opt.FracCritObs > 0 {
		markCritical(s.DObs, opt.FracCritObs, critObs)
	}
	if opt.FracCritSet > 0 {
		markCritical(s.DSet, opt.FracCritSet, critSet)
	}

	for p, id := range instr {
		in := net.Node(id).Instr
		in.DamageObs = s.DObs[id]
		in.DamageSet = s.DSet[id]
		if opt.FracCritObs > 0 {
			in.CriticalObs = crit[p]&critObs != 0
		}
		if opt.FracCritSet > 0 {
			in.CriticalSet = crit[p]&critSet != 0
		}
	}
	return s, nil
}
