package moea

import (
	"math"
	"math/rand"
	"testing"
)

func indFront(pts ...[]float64) []Individual {
	out := make([]Individual, len(pts))
	for i, p := range pts {
		out[i] = Individual{Obj: append([]float64(nil), p...)}
	}
	return out
}

// bruteHypervolume recomputes the 2-D dominated hypervolume with an
// independent algorithm: sweep the x-axis over the sorted distinct
// point abscissae and accumulate strips of height ref[1]-minY.
func bruteHypervolume(front []Individual, ref []float64) float64 {
	type pt struct{ x, y float64 }
	var pts []pt
	for i := range front {
		x, y := front[i].Obj[0], front[i].Obj[1]
		if x < ref[0] && y < ref[1] {
			pts = append(pts, pt{x, y})
		}
	}
	if len(pts) == 0 {
		return 0
	}
	hv := 0.0
	// For every strip [x_i, nextX) the dominated height is
	// ref[1] - min{y_j : x_j <= x_i}.
	xs := map[float64]bool{}
	for _, p := range pts {
		xs[p.x] = true
	}
	var order []float64
	for x := range xs {
		order = append(order, x)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for i, x := range order {
		next := ref[0]
		if i+1 < len(order) {
			next = order[i+1]
		}
		minY := math.Inf(1)
		for _, p := range pts {
			if p.x <= x && p.y < minY {
				minY = p.y
			}
		}
		hv += (next - x) * (ref[1] - minY)
	}
	return hv
}

// bruteHypervolumeGrid computes the dominated hypervolume of a front
// with integer coordinates by counting dominated unit lattice cells of
// [0, ref)^m: exact for integral inputs, independent of the slicing
// recursion, and dimension-agnostic — the cross-check oracle for K ≥ 3.
func bruteHypervolumeGrid(front []Individual, ref []float64) float64 {
	m := len(ref)
	cell := make([]int, m)
	var count func(k int) int
	dominatedCell := func() bool {
	points:
		for i := range front {
			for k := 0; k < m; k++ {
				if front[i].Obj[k] > float64(cell[k]) {
					continue points
				}
			}
			return true
		}
		return false
	}
	count = func(k int) int {
		if k == m {
			if dominatedCell() {
				return 1
			}
			return 0
		}
		total := 0
		for c := 0; c < int(ref[k]); c++ {
			cell[k] = c
			total += count(k + 1)
		}
		return total
	}
	return float64(count(0))
}

func TestHypervolumeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := []float64{100, 100}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		front := make([]Individual, n)
		for i := range front {
			// Integer coordinates, some beyond the reference point.
			front[i] = Individual{Obj: []float64{float64(rng.Intn(120)), float64(rng.Intn(120))}}
		}
		got := Hypervolume(front, ref)
		want := bruteHypervolume(front, ref)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Hypervolume = %v, brute force = %v (front %v)", trial, got, want, front)
		}
	}
}

// TestHypervolumeKDim cross-checks the slicing recursion against the
// lattice-cell oracle in 3 and 4 dimensions on random integral fronts
// (including dominated, duplicated and out-of-box points), plus a
// hand-computed 3-D case.
func TestHypervolumeKDim(t *testing.T) {
	// Single point (1,1,1) with ref (3,3,3): dominates a 2×2×2 cube.
	one := indFront([]float64{1, 1, 1})
	if got := Hypervolume(one, []float64{3, 3, 3}); got != 8 {
		t.Errorf("3-D single-point HV = %v, want 8", got)
	}
	// Two nondominated points (1,2,2) and (2,1,1) with ref (3,3,3):
	// 2+8-1 overlapped cell ⇒ hand count = 9.
	two := indFront([]float64{1, 2, 2}, []float64{2, 1, 1})
	if got, want := Hypervolume(two, []float64{3, 3, 3}), bruteHypervolumeGrid(two, []float64{3, 3, 3}); got != want {
		t.Errorf("3-D two-point HV = %v, oracle %v", got, want)
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{3, 4} {
		ref := make([]float64, m)
		for k := range ref {
			ref[k] = 8
		}
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(10)
			front := make([]Individual, n)
			for i := range front {
				obj := make([]float64, m)
				for k := range obj {
					obj[k] = float64(rng.Intn(10))
				}
				front[i] = Individual{Obj: obj}
			}
			got := Hypervolume(front, ref)
			want := bruteHypervolumeGrid(front, ref)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("m=%d trial %d: Hypervolume = %v, lattice oracle = %v (front %v)",
					m, trial, got, want, front)
			}
		}
	}
	// An empty reference point yields zero volume.
	if got := Hypervolume(one, nil); got != 0 {
		t.Errorf("zero-dim HV = %v, want 0", got)
	}
}

// TestRefPointProperty is the property test for the per-dimension
// padding: for any dimension count and any non-negative extremes,
// every coordinate is exactly max*1.01 + 1, which strictly exceeds the
// extreme — so the all-extremes corner point still contributes volume.
func TestRefPointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(6)
		maxes := make([]float64, m)
		for k := range maxes {
			// Mix zeros with values spanning nine orders of magnitude.
			if rng.Intn(4) == 0 {
				maxes[k] = 0
			} else {
				maxes[k] = rng.Float64() * math.Pow(10, float64(rng.Intn(9)))
			}
		}
		ref := RefPoint(maxes...)
		if len(ref) != m {
			t.Fatalf("RefPoint of %d maxes has %d coordinates", m, len(ref))
		}
		for k := range ref {
			if want := maxes[k]*1.01 + 1; ref[k] != want {
				t.Fatalf("ref[%d] = %v, want %v (maxes %v)", k, ref[k], want, maxes)
			}
			if ref[k] <= maxes[k] {
				t.Fatalf("ref[%d] = %v does not exceed extreme %v", k, ref[k], maxes[k])
			}
		}
	}
	if got := RefPoint(); len(got) != 0 {
		t.Errorf("RefPoint() = %v, want empty", got)
	}
}

func TestRefPoint(t *testing.T) {
	ref := RefPoint(100, 50)
	if ref[0] <= 100 || ref[1] <= 50 {
		t.Errorf("RefPoint(100, 50) = %v, must exceed both extremes", ref)
	}
	// The extreme solutions (0, maxCost) and (maxDamage, 0) must both
	// fall strictly inside the box.
	if !(0 < ref[0] && 50 < ref[1]) || !(100 < ref[0] && 0 < ref[1]) {
		t.Errorf("extreme solutions not inside box %v", ref)
	}
}

func TestNormalizedHypervolume(t *testing.T) {
	norm := func(front []Individual, ref []float64) float64 {
		return NormalizeHypervolume(Hypervolume(front, ref), ref)
	}
	ref := []float64{10, 10}
	// A single point at the origin dominates the whole box.
	if got := norm(indFront([]float64{0, 0}), ref); got != 1 {
		t.Errorf("origin norm HV = %v, want 1", got)
	}
	if got := norm(nil, ref); got != 0 {
		t.Errorf("empty norm HV = %v, want 0", got)
	}
	if got := norm(indFront([]float64{5, 5}), ref); got != 0.25 {
		t.Errorf("center norm HV = %v, want 0.25", got)
	}
	// Degenerate reference box.
	if got := norm(indFront([]float64{0, 0}), []float64{0, 10}); got != 0 {
		t.Errorf("degenerate box norm HV = %v, want 0", got)
	}
	// Monotone in front additions.
	a := norm(indFront([]float64{2, 8}), ref)
	b := norm(indFront([]float64{2, 8}, []float64{8, 2}), ref)
	if b <= a {
		t.Errorf("adding a nondominated point did not grow norm HV: %v -> %v", a, b)
	}
	// 3-D: the origin still claims the whole box.
	if got := norm(indFront([]float64{0, 0, 0}), []float64{4, 5, 10}); got != 1 {
		t.Errorf("3-D origin norm HV = %v, want 1", got)
	}
}
