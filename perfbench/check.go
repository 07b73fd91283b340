package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"strings"

	"rsnrobust/internal/baseline"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// exactOpsBudget is the tractability bound ablation.txt uses for the
// knapsack DP (primitives × (total cost + 1)).
const exactOpsBudget = 500_000_000

// reference is the in-process answer for one (network, spec seed),
// computed outside every timed region: the analyze totals and, where
// baseline.ExactTractable holds, the exact front's hypervolume.
type reference struct {
	maxCost     int64
	totalDamage int64
	mustHarden  int
	// exact is the exact front as min damage per integral cost budget
	// 0..maxCost; nil when the DP is intractable.
	exact []int64
}

// newReference analyzes net under sp with the library defaults (fault
// universe "all"), as both the serve handlers and core.Synthesize do.
func newReference(net *rsn.Network, sp *spec.Spec) (*reference, error) {
	tree, err := sptree.Build(net)
	if err != nil {
		return nil, err
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ref := &reference{maxCost: a.MaxCost(), totalDamage: a.TotalDamage, mustHarden: len(a.MustHarden())}
	if baseline.ExactTractable(a, exactOpsBudget) {
		ex := baseline.NewExact(a)
		ref.exact = make([]int64, ref.maxCost+1)
		for c := range ref.exact {
			ref.exact[c] = ex.MinDamageWithCostAtMost(int64(c))
		}
	}
	return ref, nil
}

// point is one front point as the checks see it.
type point struct {
	Cost            int64 `json:"cost"`
	Damage          int64 `json:"damage"`
	Hardened        int   `json:"hardened"`
	CriticalCovered bool  `json:"critical_covered"`
}

// refBox is ablation.txt's hypervolume reference point: 1 % beyond the
// unhardened damage and the full-hardening cost.
func refBox(maxDamage, maxCost int64) (rd, rc float64) {
	return float64(maxDamage) * 1.01, float64(maxCost) * 1.01
}

// frontHV is the 2-objective (damage, cost) hypervolume of a
// nondominated front in the box (rd, rc), both objectives minimized.
func frontHV(front []point, rd, rc float64) float64 {
	pts := append([]point(nil), front...)
	// Sort by cost ascending; damage then descends along a front.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].Cost < pts[j-1].Cost; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	var hv float64
	best := rd
	for i, p := range pts {
		next := rc
		if i+1 < len(pts) {
			next = float64(pts[i+1].Cost)
		}
		best = math.Min(best, float64(p.Damage))
		if w := next - float64(p.Cost); w > 0 {
			hv += w * (rd - best)
		}
	}
	return hv
}

// hvRatio is the front's hypervolume over the exact front's in the
// same box, or ok=false where the exact DP is intractable.
func (ref *reference) hvRatio(front []point) (float64, bool) {
	if ref.exact == nil {
		return 0, false
	}
	rd, rc := refBox(ref.totalDamage, ref.maxCost)
	// Exact staircase: with cost budget in [c, c+1) the best damage is
	// exact[c]; beyond maxCost it stays at exact[maxCost].
	var ex float64
	for c := int64(0); c < ref.maxCost; c++ {
		ex += rd - float64(ref.exact[c])
	}
	ex += (rc - float64(ref.maxCost)) * (rd - float64(ref.exact[ref.maxCost]))
	return frontHV(front, rd, rc) / ex, true
}

// checkFront verifies the shape contract of a returned front: sorted by
// damage, mutually nondominated, and inside [0, maxCost] × [0, maxDamage].
func checkFront(front []point, maxCost, maxDamage int64) error {
	if len(front) == 0 {
		return fmt.Errorf("empty front")
	}
	for i, p := range front {
		if p.Cost < 0 || p.Cost > maxCost || p.Damage < 0 || p.Damage > maxDamage {
			return fmt.Errorf("point %d (cost %d, damage %d) outside [0,%d]×[0,%d]", i, p.Cost, p.Damage, maxCost, maxDamage)
		}
		if i > 0 && p.Damage < front[i-1].Damage {
			return fmt.Errorf("front not sorted by damage at point %d", i)
		}
		for j := range front {
			q := front[j]
			if q.Cost <= p.Cost && q.Damage <= p.Damage && (q.Cost < p.Cost || q.Damage < p.Damage) {
				return fmt.Errorf("point %d (cost %d, damage %d) is dominated by point %d (cost %d, damage %d)", i, p.Cost, p.Damage, j, q.Cost, q.Damage)
			}
		}
	}
	return nil
}

// checkPicks verifies the Table I constrained picks, when present:
// each meets its 10 % constraint and is a point of the front.
func checkPicks(front []point, damage10, cost10 *point, maxCost, maxDamage int64) error {
	onFront := func(p point) bool {
		for _, q := range front {
			if q == p {
				return true
			}
		}
		return false
	}
	if damage10 != nil {
		if lim := int64(math.Floor(0.10 * float64(maxDamage))); damage10.Damage > lim {
			return fmt.Errorf("damage10 pick has damage %d > %d", damage10.Damage, lim)
		}
		if !onFront(*damage10) {
			return fmt.Errorf("damage10 pick is not a front point")
		}
	}
	if cost10 != nil {
		if lim := int64(math.Floor(0.10 * float64(maxCost))); cost10.Cost > lim {
			return fmt.Errorf("cost10 pick has cost %d > %d", cost10.Cost, lim)
		}
		if !onFront(*cost10) {
			return fmt.Errorf("cost10 pick is not a front point")
		}
	}
	return nil
}

// volatileFields differ legitimately between a response and its repeat.
var volatileFields = []string{"elapsed_ms", "cached"}

// sameResult reports whether two harden bodies are equal except for
// elapsed_ms and cached.
func sameResult(a, b []byte) error {
	strip := func(body []byte) ([]byte, error) {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		for _, f := range volatileFields {
			delete(m, f)
		}
		return json.Marshal(m) // map keys marshal sorted
	}
	sa, err := strip(a)
	if err != nil {
		return fmt.Errorf("original body: %v", err)
	}
	sb, err := strip(b)
	if err != nil {
		return fmt.Errorf("repeat body: %v", err)
	}
	if !bytes.Equal(sa, sb) {
		return fmt.Errorf("bodies differ beyond %s", strings.Join(volatileFields, " and "))
	}
	return nil
}

// digest hashes every front of a run in op order, so two runs with the
// same seed can be compared by one string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(id string, front []point) {
	fmt.Fprint(d.h, id)
	for _, p := range front {
		fmt.Fprintf(d.h, ";%d,%d,%d,%t", p.Cost, p.Damage, p.Hardened, p.CriticalCovered)
	}
	fmt.Fprintln(d.h)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
