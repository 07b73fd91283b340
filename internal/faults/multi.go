package faults

import (
	"math/rand"

	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
)

// MultiEffect computes the joint accessibility loss under several
// simultaneous faults: all broken segments are removed together, all
// stuck and control-coupled dead edges accumulate. It generalizes the
// single-fault rules Effect documents, and Effect is its one-fault
// case. The paper restricts itself to single faults — this is the
// extension its conclusion hints at, used by the multi-fault robustness
// evaluation.
func MultiEffect(net *rsn.Network, fs []Fault, opts Options) (obsLost, setLost []bool) {
	// skip stays nil unless a segment breaks: stuck muxes remove no
	// node. dead does not escape, so its first entries live on the
	// stack.
	var skip []bool
	dead := map[edgeKey]bool{}
	for _, f := range fs {
		if f.Kind == MuxStuck {
			addStuckDeadEdges(dead, net, f.Node, f.Port)
		}
	}
	for _, f := range fs {
		if f.Kind != SegmentBreak {
			continue
		}
		if skip == nil {
			skip = make([]bool, net.NumNodes())
		}
		skip[f.Node] = true
		addCtrlDeadEdges(dead, net, f.Node, opts, fs)
	}

	toSO := multiBackward(net, skip, dead)
	fromSI := multiForward(net, skip, dead)
	toSOPath := toSO
	if skip != nil {
		toSOPath = multiBackward(net, nil, dead)
	}

	obsLost = make([]bool, net.NumNodes())
	setLost = make([]bool, net.NumNodes())
	for i := 0; i < net.NumNodes(); i++ {
		nd := net.Node(rsn.NodeID(i))
		if nd.Kind != rsn.KindSegment || nd.Instr == nil {
			continue
		}
		obsLost[i] = !toSO[i]
		setLost[i] = !fromSI[i] || !toSOPath[i]
	}
	return obsLost, setLost
}

// multiForward marks the nodes reachable from scan-in, never entering a
// skipped node (skip may be nil) and never using dead edges.
func multiForward(net *rsn.Network, skip []bool, dead map[edgeKey]bool) []bool {
	seen := make([]bool, net.NumNodes())
	start := net.ScanIn
	if skip != nil && skip[start] {
		return seen
	}
	seen[start] = true
	var buf [32]rsn.NodeID // small networks walk without a heap stack
	stack := append(buf[:0], start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range net.Succ(v) {
			if seen[t] || (skip != nil && skip[t]) {
				continue
			}
			if len(dead) > 0 && net.Node(t).Kind == rsn.KindMux {
				// Parallel edges (several ports fed by the same
				// predecessor) stay alive as long as any one port does.
				alive := false
				for p, u := range net.Pred(t) {
					if u == v && !dead[edgeKey{from: v, to: t, port: p}] {
						alive = true
						break
					}
				}
				if !alive {
					continue
				}
			}
			seen[t] = true
			stack = append(stack, t)
		}
	}
	return seen
}

// multiBackward marks the nodes that can reach scan-out, never entering
// a skipped node (skip may be nil) and never using dead edges.
func multiBackward(net *rsn.Network, skip []bool, dead map[edgeKey]bool) []bool {
	seen := make([]bool, net.NumNodes())
	end := net.ScanOut
	if skip != nil && skip[end] {
		return seen
	}
	seen[end] = true
	var buf [32]rsn.NodeID // small networks walk without a heap stack
	stack := append(buf[:0], end)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p, t := range net.Pred(v) {
			if seen[t] || (skip != nil && skip[t]) {
				continue
			}
			if len(dead) > 0 && net.Node(v).Kind == rsn.KindMux {
				if dead[edgeKey{from: t, to: v, port: p}] {
					continue
				}
			}
			seen[t] = true
			stack = append(stack, t)
		}
	}
	return seen
}

// MultiFaultStats summarizes a Monte-Carlo multi-fault campaign.
type MultiFaultStats struct {
	// Samples is the number of fault combinations actually sampled. It
	// is zero when the campaign is degenerate — no unhardened fault
	// sites, no instruments, or a non-positive sample request — so
	// "N samples, mean damage 0" can never be mistaken for a measured
	// result on a fully-hardened network.
	Samples int
	// MeanDamage and WorstDamage are over the sampled combinations.
	MeanDamage  float64
	WorstDamage int64
	// MeanAccessible is the mean fraction of instruments that keep both
	// directions accessible.
	MeanAccessible float64
	// CriticalFailures counts samples in which at least one critical
	// instrument lost its protected direction.
	CriticalFailures int
}

// SampleMultiFault estimates the damage distribution under k
// simultaneous random faults by Monte-Carlo sampling. Fault sites are
// drawn without replacement from the unhardened primitives of the
// universe implied by opts.Scope, weighted by cell area (the
// specification's cost vector); hardened primitives cannot fault. Each
// mux site gets a uniformly random stuck port.
func SampleMultiFault(net *rsn.Network, sp *spec.Spec, opts Options, k, samples int, seed int64) MultiFaultStats {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]rsn.NodeID, 0)
	weights := make([]int64, 0)
	var totalW int64
	for _, id := range universeOf(net, opts.Scope) {
		if net.Node(id).Hardened {
			continue
		}
		w := sp.Cost[id]
		if w <= 0 {
			w = 1
		}
		sites = append(sites, id)
		weights = append(weights, w)
		totalW += w
	}
	instr := net.Instruments()
	if len(sites) == 0 || len(instr) == 0 || samples <= 0 {
		// Degenerate campaign: nothing was sampled, so report zero
		// samples (with full accessibility as the vacuous truth).
		return MultiFaultStats{MeanAccessible: 1}
	}
	st := MultiFaultStats{Samples: samples}
	if k > len(sites) {
		k = len(sites)
	}

	var sumDamage float64
	var sumAccess float64
	for s := 0; s < samples; s++ {
		fs := sampleSites(rng, net, sites, weights, totalW, k)
		obsLost, setLost := MultiEffect(net, fs, opts)
		var dmg int64
		accessible := 0
		critFail := false
		for _, id := range instr {
			if obsLost[id] {
				dmg += sp.DObs[id]
				if net.Node(id).Instr.CriticalObs {
					critFail = true
				}
			}
			if setLost[id] {
				dmg += sp.DSet[id]
				if net.Node(id).Instr.CriticalSet {
					critFail = true
				}
			}
			if !obsLost[id] && !setLost[id] {
				accessible++
			}
		}
		sumDamage += float64(dmg)
		sumAccess += float64(accessible) / float64(len(instr))
		if dmg > st.WorstDamage {
			st.WorstDamage = dmg
		}
		if critFail {
			st.CriticalFailures++
		}
	}
	st.MeanDamage = sumDamage / float64(samples)
	st.MeanAccessible = sumAccess / float64(samples)
	return st
}

// sampleSites draws k distinct fault sites weighted by area and
// assigns random fault modes. Each chosen site is swap-removed and its
// weight subtracted from the remaining mass, so every draw is over the
// weights still in play: the loop terminates in exactly k draws no
// matter how skewed the weights are (rejection sampling would redraw
// essentially forever when one site dominates the mass and k approaches
// len(sites)), and later draws are correctly conditioned on the earlier
// ones instead of being biased toward the already-removed heavy sites.
func sampleSites(rng *rand.Rand, net *rsn.Network, sites []rsn.NodeID, weights []int64, totalW int64, k int) []Fault {
	remSites := append([]rsn.NodeID(nil), sites...)
	remW := append([]int64(nil), weights...)
	fs := make([]Fault, 0, k)
	for len(fs) < k && totalW > 0 {
		r := rng.Int63n(totalW)
		idx := len(remW) - 1
		for i, w := range remW {
			if r < w {
				idx = i
				break
			}
			r -= w
		}
		id := remSites[idx]
		totalW -= remW[idx]
		last := len(remW) - 1
		remSites[idx], remW[idx] = remSites[last], remW[last]
		remSites, remW = remSites[:last], remW[:last]
		// A mux with no predecessors (degenerate but constructible via
		// the builder) has no port to pin: treat it as a broken segment
		// instead of panicking in Intn(0).
		if net.Node(id).Kind == rsn.KindMux && len(net.Pred(id)) > 0 {
			fs = append(fs, Fault{Kind: MuxStuck, Node: id, Port: rng.Intn(len(net.Pred(id)))})
		} else {
			fs = append(fs, Fault{Kind: SegmentBreak, Node: id})
		}
	}
	return fs
}
