package spec

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/rsn"
)

func TestFromNetwork(t *testing.T) {
	net := fixture.PaperExample()
	s := FromNetwork(net, DefaultCostModel)
	i3 := net.Lookup("i3")
	if s.DObs[i3] != 5 || s.DSet[i3] != 6 {
		t.Errorf("i3 weights = (%d,%d), want (5,6)", s.DObs[i3], s.DSet[i3])
	}
	if s.TotalObs() != 9 || s.TotalSet() != 12 {
		t.Errorf("totals = (%d,%d), want (9,12)", s.TotalObs(), s.TotalSet())
	}
}

func TestCostModel(t *testing.T) {
	net := fixture.PaperExample()
	s := New(net, CostModel{PerSegmentBit: 3, PerMux: 7})
	// i1 has 4 bits -> 12; m0 is a mux -> 7; fan-outs cost nothing.
	if got := s.Cost[net.Lookup("i1")]; got != 12 {
		t.Errorf("cost(i1) = %d, want 12", got)
	}
	if got := s.Cost[net.Lookup("m0")]; got != 7 {
		t.Errorf("cost(m0) = %d, want 7", got)
	}
	if got := s.Cost[net.Lookup("f0")]; got != 0 {
		t.Errorf("cost(f0) = %d, want 0", got)
	}
	// Max cost: segments i1,i2,i3 (4 bits), c0,c1,c2 (2 bits) and 3
	// muxes: 3*(3*4) + 3*(3*2) + 3*7 = 36+18+21.
	if got, want := s.MaxCost(), int64(36+18+21); got != want {
		t.Errorf("MaxCost = %d, want %d", got, want)
	}
}

func TestGenerateFractions(t *testing.T) {
	net := benchnets.Random(benchnets.RandomOptions{Seed: 7, TargetPrims: 400, PInstrument: 1})
	instr := net.Instruments()
	if len(instr) < 100 {
		t.Fatalf("too few instruments for a meaningful test: %d", len(instr))
	}
	s, err := Generate(net, PaperGenOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	nzObs, nzSet := 0, 0
	for _, id := range instr {
		if s.DObs[id] > 0 {
			nzObs++
		}
		if s.DSet[id] > 0 {
			nzSet++
		}
	}
	// 70% non-zero plus up to 10% critical (which may overlap): the
	// non-zero fraction must lie in [0.70, 0.80] up to rounding.
	loOK := func(n int) bool { return float64(n) >= 0.69*float64(len(instr)) }
	hiOK := func(n int) bool { return float64(n) <= 0.81*float64(len(instr)) }
	if !loOK(nzObs) || !hiOK(nzObs) {
		t.Errorf("non-zero obs weights: %d of %d, want ~70-80%%", nzObs, len(instr))
	}
	if !loOK(nzSet) || !hiOK(nzSet) {
		t.Errorf("non-zero set weights: %d of %d, want ~70-80%%", nzSet, len(instr))
	}
}

func TestGenerateCriticalDominance(t *testing.T) {
	// Property of Section IV-A: every critical instrument's weight is at
	// least the sum of all uncritical weights, for any seed.
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 120, PInstrument: 1})
		s, err := Generate(net, PaperGenOptions(seed))
		if err != nil {
			t.Log(err)
			return false
		}
		var uncritObs, uncritSet int64
		for _, id := range net.Instruments() {
			in := net.Node(id).Instr
			if !in.CriticalObs {
				uncritObs += s.DObs[id]
			}
			if !in.CriticalSet {
				uncritSet += s.DSet[id]
			}
		}
		for _, id := range net.Instruments() {
			in := net.Node(id).Instr
			if in.CriticalObs && s.DObs[id] < uncritObs {
				t.Logf("seed %d: critical-obs %s weight %d < uncritical sum %d", seed, in.Name, s.DObs[id], uncritObs)
				return false
			}
			if in.CriticalSet && s.DSet[id] < uncritSet {
				t.Logf("seed %d: critical-set %s weight %d < uncritical sum %d", seed, in.Name, s.DSet[id], uncritSet)
				return false
			}
			// Spec and network views agree.
			if in.DamageObs != s.DObs[id] || in.DamageSet != s.DSet[id] {
				t.Logf("seed %d: instrument/spec weight mismatch for %s", seed, in.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	netA := benchnets.Random(benchnets.RandomOptions{Seed: 5, TargetPrims: 80})
	netB := benchnets.Random(benchnets.RandomOptions{Seed: 5, TargetPrims: 80})
	sA, _ := Generate(netA, PaperGenOptions(9))
	sB, _ := Generate(netB, PaperGenOptions(9))
	for i := range sA.DObs {
		if sA.DObs[i] != sB.DObs[i] || sA.DSet[i] != sB.DSet[i] || sA.Cost[i] != sB.Cost[i] {
			t.Fatalf("generation is not deterministic at node %d", i)
		}
	}

	// The specification of a Table I row is pinned: weights, costs and
	// critical flags depend only on the seed's draw order.
	net, err := benchnets.Generate("MBIST_5_20_20")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate(net, PaperGenOptions(12345))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := range s.Cost {
		fmt.Fprintf(h, "%d %d %d\n", s.DObs[i], s.DSet[i], s.Cost[i])
	}
	for _, id := range net.Instruments() {
		in := net.Node(id).Instr
		fmt.Fprintf(h, "%d %t %t\n", id, in.CriticalObs, in.CriticalSet)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "dce5bebc40bafe8b"; got != want {
		t.Errorf("MBIST_5_20_20 spec at seed 12345: digest %s, want %s", got, want)
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	net := fixture.PaperExample()
	if _, err := Generate(net, GenOptions{WeightMax: 0}); err == nil {
		t.Fatal("Generate accepted WeightMax = 0")
	}
	// Every fraction outside [0, 1], or NaN, is an error, not a panic
	// on the instrument permutation's bounds.
	fracs := map[string]func(*GenOptions) *float64{
		"FracObs":     func(o *GenOptions) *float64 { return &o.FracObs },
		"FracSet":     func(o *GenOptions) *float64 { return &o.FracSet },
		"FracCritObs": func(o *GenOptions) *float64 { return &o.FracCritObs },
		"FracCritSet": func(o *GenOptions) *float64 { return &o.FracCritSet },
	}
	for name, field := range fracs {
		for _, v := range []float64{1.5, -0.5, math.NaN(), math.Inf(1)} {
			opt := PaperGenOptions(1)
			*field(&opt) = v
			if _, err := Generate(fixture.PaperExample(), opt); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: err = %v, want an error naming the field", name, v, err)
			}
		}
		for _, v := range []float64{0, 1} {
			opt := PaperGenOptions(1)
			*field(&opt) = v
			if _, err := Generate(fixture.PaperExample(), opt); err != nil {
				t.Errorf("%s = %v rejected: %v", name, v, err)
			}
		}
	}
}

func TestGenerateEmptyInstrumentSet(t *testing.T) {
	b := rsn.NewBuilder("bare")
	b.Segment("s", 4, nil)
	net := b.Finish()
	s, err := Generate(net, PaperGenOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalObs() != 0 || s.TotalSet() != 0 {
		t.Error("weights assigned to a network without instruments")
	}
}
