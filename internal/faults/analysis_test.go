package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// TestAnalyzeFingerprints pins the criticality analysis by hash: the
// fault universe, every damage, every critical hit and the total damage
// under both scopes, the three Combine policies and both couplings, on
// every Table I network up to 60k primitives, MBIST_5_100_20 and the
// random networks of benchnets' TestTable1Fingerprints. Table I rows
// carry the paper's generated specification (seed 1), the random
// networks their designer weights.
func TestAnalyzeFingerprints(t *testing.T) {
	want := map[string]string{
		"TreeFlat":       "d0ee167470a4d9ef",
		"TreeUnbalanced": "a6f7c00ef23bb7af",
		"TreeBalanced":   "7827ba3d1bd921b1",
		"TreeFlat_Ex":    "5f9ac12e79eb9691",
		"q12710":         "f54a9679df08d5d9",
		"a586710":        "8af0b7d51ad0e737",
		"p34392":         "79caad269165c421",
		"t512505":        "8c2e04be1a699949",
		"p22810":         "453402428178f09d",
		"p93791":         "262cfe6d60c2298d",
		"MBIST_1_5_5":    "492a74379de9a7f3",
		"MBIST_1_5_20":   "a5172125cc3c772d",
		"MBIST_1_20_20":  "76d18cc49985a777",
		"MBIST_2_5_5":    "9ec63d0b178cf551",
		"MBIST_2_5_20":   "df1abc4839aa3ffb",
		"MBIST_2_20_20":  "7cb7ea0e0d3ef193",
		"MBIST_5_5_5":    "b2f1c2ef5063f471",
		"MBIST_5_20_20":  "b35d4da783b551a3",
		"MBIST_5_100_20": "e106ec7015fffa09",
		"random-1":       "2b88cec29238cd91",
		"random-2":       "79d062b4468cccc1",
		"random-3":       "9f39312b4a6b32b6",
	}
	type input struct {
		net *rsn.Network
		sp  *spec.Spec
	}
	var ins []input
	for _, e := range benchnets.Table1 {
		if e.Segments+e.Muxes > 60000 && e.Name != "MBIST_5_100_20" {
			continue
		}
		net, err := benchnets.GenerateEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{net, sp})
	}
	for _, opt := range []benchnets.RandomOptions{
		{Seed: 1, TargetPrims: 300, SegmentControls: true},
		{Seed: 2, TargetPrims: 2000},
		{Seed: 3, TargetPrims: 5000, MaxDepth: 6, SegmentControls: true},
	} {
		net := benchnets.Random(opt)
		ins = append(ins, input{net, spec.FromNetwork(net, spec.DefaultCostModel)})
	}
	if len(ins) != len(want) {
		t.Fatalf("%d networks, %d pinned fingerprints", len(ins), len(want))
	}
	for _, in := range ins {
		if err := rsn.Validate(in.net); err != nil {
			t.Fatalf("%s: Validate: %v", in.net.Name, err)
		}
		tree, err := sptree.Build(in.net)
		if err != nil {
			t.Fatalf("%s: Build: %v", in.net.Name, err)
		}
		h := fnv.New64a()
		var buf []byte
		for _, scope := range []Scope{ScopeAll, ScopeControl} {
			for _, combine := range []Combine{CombineMax, CombineSum, CombineMean} {
				for _, sib := range []bool{false, true} {
					for _, ctrl := range []bool{false, true} {
						opts := Options{Combine: combine, Scope: scope, SIBCoupling: sib, CtrlCoupling: ctrl}
						a, err := Analyze(in.net, tree, in.sp, opts)
						if err != nil {
							t.Fatalf("%s %+v: %v", in.net.Name, opts, err)
						}
						buf = fmt.Appendf(buf[:0], "%+v %d %d\n", opts, len(a.Prims), a.TotalDamage)
						for _, id := range a.Prims {
							buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
						}
						for i, d := range a.Damage {
							buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
							if a.CritHit[i] {
								buf = append(buf, 1)
							} else {
								buf = append(buf, 0)
							}
						}
						h.Write(buf)
					}
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[in.net.Name] {
			t.Errorf("%s: fingerprint %s, want %s", in.net.Name, got, want[in.net.Name])
		}
	}
}

// TestAnalyzeAllocs gates the analyze path at allocations per network:
// Analyze makes a fixed number whatever the network's size, and
// sptree.Build well under one per multiplexer.
func TestAnalyzeAllocs(t *testing.T) {
	for _, name := range []string{"TreeFlat", "MBIST_5_20_20", "MBIST_5_100_20"} {
		net, err := benchnets.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := sptree.Build(net)
		if err != nil {
			t.Fatal(err)
		}
		muxes := net.Stats().Muxes
		build := testing.AllocsPerRun(3, func() {
			if _, err := sptree.Build(net); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(2 * muxes); build > limit {
			t.Errorf("%s: sptree.Build makes %.0f allocations, limit %.0f (2 per multiplexer)", name, build, limit)
		}
		for _, scope := range []Scope{ScopeAll, ScopeControl} {
			opts := DefaultOptions()
			opts.Scope = scope
			analyze := testing.AllocsPerRun(3, func() {
				if _, err := Analyze(net, tree, sp, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s (%d muxes): sptree.Build %.0f allocs, Analyze/%s %.0f allocs", name, muxes, build, scope, analyze)
			if analyze > 8 {
				t.Errorf("%s: Analyze under scope %s makes %.0f allocations, limit 8", name, scope, analyze)
			}
		}
	}
}

// TestParseScope: every fault universe parses back from its String
// name, the empty name is the default, and any other spelling is an
// error.
func TestParseScope(t *testing.T) {
	for _, s := range []Scope{ScopeAll, ScopeControl} {
		if got, err := ParseScope(s.String()); err != nil || got != s {
			t.Errorf("ParseScope(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := ParseScope(""); err != nil || got != ScopeAll {
		t.Errorf(`ParseScope("") = %v, %v, want all`, got, err)
	}
	for _, bad := range []string{"bogus", "ALL", "Control"} {
		if _, err := ParseScope(bad); err == nil {
			t.Errorf("ParseScope(%q) accepted", bad)
		}
	}
}
