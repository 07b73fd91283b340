package core

import (
	"fmt"
	"math"
	"strings"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/yield"
)

// This file is the objective table: the K-objective generalization of
// the optimizer's view of the hardening problem. Every objective is
// identified by name; the table's order is the canonical objective
// order, and each entry compiles against a completed criticality
// analysis into a linear form — a base plus one integer weight per
// primitive — that the problem's row kernel evaluates.
//
// All four objectives are affine in the hardened-bit set: residual
// damage (base = total damage, weight −d_j), hardening cost (weight
// +c_j), test-time overhead (weight = the number of instrument access
// patterns whose scan path traverses primitive j) and expected-yield
// loss (fixed-point micro-damage weights from the Poisson defect
// model). Integer weights keep full and incremental evaluation
// bit-identical — float64 sums would reassociate.

// Built-in objective names, in canonical order.
const (
	ObjDamage    = "damage"
	ObjCost      = "cost"
	ObjTestTime  = "test_time"
	ObjYieldLoss = "yield_loss"
)

// objective is one entry of the objective table. linear returns the
// base and the per-primitive weights (analysis bit order, a.Prims) of
//
//	base + Σ_{j hardened} w_j
//
// in integer units; scale divides them into reported units (1 means
// the value is already in natural units).
type objective struct {
	name   string
	scale  float64
	linear func(a *faults.Analysis) (base int64, w []int64)
}

// objectives is the fixed objective table in canonical order: every
// list of objective names is normalized into this order (CLI flags,
// the serve API and its cache key, Options.Objectives).
var objectives = [maxObjectives]objective{
	{ObjDamage, 1, damageLinear},
	{ObjCost, 1, costLinear},
	{ObjTestTime, 1, testTimeLinear},
	{ObjYieldLoss, yieldScale, yieldLossLinear},
}

// ObjectiveNames returns the known objective names in canonical order.
func ObjectiveNames() []string {
	names := make([]string, len(objectives))
	for k := range objectives {
		names[k] = objectives[k].name
	}
	return names
}

// DefaultObjectives returns the paper's objective pair.
func DefaultObjectives() []string { return []string{ObjDamage, ObjCost} }

// CanonicalObjectives validates and normalizes an objective-name list:
// names are trimmed, checked against the objective table (unknown
// names error, listing the known ones), deduplicated and reordered into
// canonical order — so any two requests for the same objective set
// produce the same list, the same optimizer run and the same cache key.
// An empty list canonicalizes to DefaultObjectives. At least two
// distinct objectives are required: the trade-off front and the
// constrained picks are meaningless below that.
func CanonicalObjectives(names []string) ([]string, error) {
	if len(names) == 0 {
		return DefaultObjectives(), nil
	}
	var seen [len(objectives)]bool
	for _, n := range names {
		k := objectiveIndex(strings.TrimSpace(n))
		if k < 0 {
			return nil, fmt.Errorf("core: unknown objective %q (registered: %s)",
				strings.TrimSpace(n), strings.Join(ObjectiveNames(), ", "))
		}
		seen[k] = true
	}
	var out []string
	for k := range objectives {
		if seen[k] {
			out = append(out, objectives[k].name)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("core: at least two distinct objectives are required, got %v", out)
	}
	return out, nil
}

// objectiveIndex returns the table index of the named objective, or -1.
func objectiveIndex(name string) int {
	for k := range objectives {
		if objectives[k].name == name {
			return k
		}
	}
	return -1
}

// ParseObjectives splits a comma-separated objective list (the CLI
// -objectives flag syntax) and canonicalizes it; an empty string
// selects the default pair.
func ParseObjectives(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultObjectives(), nil
	}
	return CanonicalObjectives(strings.Split(s, ","))
}

// damageLinear is the paper's first objective: residual damage
// Σ_{j unhardened} d_j = TotalDamage − Σ_{j hardened} d_j.
func damageLinear(a *faults.Analysis) (int64, []int64) {
	w := make([]int64, len(a.Prims))
	var total int64
	for i, id := range a.Prims {
		w[i] = -a.Damage[id]
		total += a.Damage[id]
	}
	return total, w
}

// costLinear is the paper's second objective: hardening cost
// Σ_{j hardened} c_j.
func costLinear(a *faults.Analysis) (int64, []int64) {
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		w[i] = a.Spec.Cost[id]
	}
	return 0, w
}

// testTimeLinear models the test-time overhead of hardening: a
// hardened segment adds one extra shift cycle to every access pattern
// whose scan path traverses it (the guard latch of the isolation
// wrapper sits on the scan path). The objective is the total extra
// shift cycles over the network's instrument access patterns — one
// pattern per instrument, routed along the active path the
// decomposition tree implies: ancestors of the target are always
// traversed, and at a parallel section that does not contain the
// target the shortest branch (ties to the left) is selected.
func testTimeLinear(a *faults.Analysis) (int64, []int64) {
	return 0, testTimeWeights(a)
}

// testTimeWeights returns, in analysis bit order, the number of
// instrument access patterns whose scan path traverses each primitive.
// Both passes walk the tree arena by index: sptree allocates children
// strictly before parents, so ascending order is bottom-up and
// descending order is top-down.
func testTimeWeights(a *faults.Analysis) []int64 {
	t := a.Tree
	n := t.Size()
	instr := make([]int64, n)  // instruments hosted in the subtree
	minLen := make([]int64, n) // primitives on the shortest path through it
	for ref := sptree.NodeRef(0); int(ref) < n; ref++ {
		switch t.OpOf(ref) {
		case sptree.OpLeaf:
			id := t.PrimOf(ref)
			if nd := a.Net.Node(id); nd.Instr != nil {
				instr[ref] = 1
			}
			minLen[ref] = 1
		case sptree.OpSeries:
			l, r := t.Children(ref)
			instr[ref] = instr[l] + instr[r]
			minLen[ref] = minLen[l] + minLen[r]
		case sptree.OpParallel:
			l, r := t.Children(ref)
			instr[ref] = instr[l] + instr[r]
			minLen[ref] = minLen[l]
			if minLen[r] < minLen[l] {
				minLen[ref] = minLen[r]
			}
		}
	}
	// cnt[ref] = access patterns that traverse the whole subtree. Every
	// access shifts through the full active chain, so the root sees one
	// traversal per instrument; series children inherit their parent's
	// count; at a parallel node the patterns targeting a branch follow
	// it, and the rest take the default (shortest, ties left) branch.
	cnt := make([]int64, n)
	root := t.Root()
	if root >= 0 {
		cnt[root] = instr[root]
	}
	for ref := sptree.NodeRef(n - 1); ref >= 0; ref-- {
		c := cnt[ref]
		switch t.OpOf(ref) {
		case sptree.OpSeries:
			l, r := t.Children(ref)
			cnt[l] += c
			cnt[r] += c
		case sptree.OpParallel:
			l, r := t.Children(ref)
			pass := c - instr[l] - instr[r] // patterns targeting outside this section
			cnt[l] += instr[l]
			cnt[r] += instr[r]
			if minLen[l] <= minLen[r] {
				cnt[l] += pass
			} else {
				cnt[r] += pass
			}
		}
	}
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		if leaf := t.LeafOf(id); leaf != sptree.NilRef {
			w[i] = cnt[leaf]
		}
	}
	return w
}

// yieldScale is the fixed-point scale of the yield-loss objective:
// expected damage is a float in the Poisson model, but the optimizer
// needs integer weights for exact full/incremental agreement, so the
// objective works in micro-damage units. With damages up to ~2^31 the
// scaled values stay far below 2^53, so the float64 objective slots
// remain exact.
const yieldScale = 1e6

// yieldLossLinear is the expected-yield-loss objective: the expected
// criticality-weighted damage of a manufactured device under the
// Poisson defect model (yield.DefaultModel), first-order in the defect
// probabilities — hardening primitive j moves its defect rate from λ
// to λ·HardenedFactor, reducing the expectation by
// (p_unhardened − p_hardened)·d_j.
func yieldLossLinear(a *faults.Analysis) (int64, []int64) {
	m := yield.DefaultModel
	var base int64
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		area := a.Spec.Cost[id]
		d := float64(a.Damage[id])
		pu := m.FailProb(area, false)
		ph := m.FailProb(area, true)
		base += int64(math.Round(pu * d * yieldScale))
		w[i] = int64(math.Round((ph - pu) * d * yieldScale))
	}
	return base, w
}
