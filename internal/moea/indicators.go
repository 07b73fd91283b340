package moea

// This file holds the quality indicators consumed by the telemetry
// layer's per-generation convergence stats. The raw K-objective
// Hypervolume lives in dominance.go; here are the derived forms.

// RefPoint returns the standard hypervolume reference point for the
// selective-hardening problem: one coordinate per objective, each
// padded per dimension to max*1.01 + 1 — slightly beyond that
// objective's extreme value, so that the trivial solutions (nothing
// hardened and everything hardened) both contribute positive volume.
// The historical two-argument call sites keep compiling unchanged.
func RefPoint(maxes ...float64) []float64 {
	ref := make([]float64, len(maxes))
	for k, v := range maxes {
		ref[k] = v*1.01 + 1
	}
	return ref
}

// NormalizedHypervolume returns the dominated hypervolume as a fraction
// of the reference box volume (the product of the ref coordinates), in
// [0, 1]. It is the scale-free convergence indicator recorded per
// generation: comparable across networks whose absolute objective
// ranges differ by orders of magnitude.
func NormalizedHypervolume(front []Individual, ref []float64) float64 {
	return NormalizeHypervolume(Hypervolume(front, ref), ref)
}

// NormalizeHypervolume divides a hypervolume measured against ref by the
// reference box volume, as NormalizedHypervolume does: a caller that
// already holds Hypervolume(front, ref) gets the same bits without
// measuring the front twice.
func NormalizeHypervolume(hv float64, ref []float64) float64 {
	box := 1.0
	for _, r := range ref {
		box *= r
	}
	if len(ref) == 0 || box <= 0 {
		return 0
	}
	return hv / box
}

// HypervolumeContributions returns, for every individual of the front,
// its exclusive hypervolume contribution: the volume lost when that
// individual alone is removed. Dominated and out-of-box individuals
// contribute zero, and so does every copy of a duplicated objective
// vector (removing one copy loses nothing). The contribution is the
// standard measure of how much a single front member matters.
func HypervolumeContributions(front []Individual, ref []float64) []float64 {
	out := make([]float64, len(front))
	if len(front) == 0 {
		return out
	}
	total := Hypervolume(front, ref)
	rest := make([]Individual, 0, len(front)-1)
	for i := range front {
		rest = rest[:0]
		rest = append(rest, front[:i]...)
		rest = append(rest, front[i+1:]...)
		if d := total - Hypervolume(rest, ref); d > 0 {
			out[i] = d
		}
	}
	return out
}
