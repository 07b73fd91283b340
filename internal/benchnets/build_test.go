package benchnets

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"rsnrobust/internal/icl"
	"rsnrobust/internal/rsn"
)

// fingerprint hashes every node of net in ID order (kind, name, length,
// SIB flag, partner, control, hardening and instrument fields) together
// with its successor and predecessor lists in order.
func fingerprint(net *rsn.Network) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %d\n", net.Name, net.NumNodes())
	net.Nodes(func(nd *rsn.Node) {
		fmt.Fprintf(h, "%d %d %q %d %t %d %d %d %d %t", nd.ID, nd.Kind, nd.Name, nd.Length, nd.SIB, nd.Partner,
			nd.Ctrl.Source, nd.Ctrl.Bit, nd.Ctrl.Width, nd.Hardened)
		if in := nd.Instr; in != nil {
			fmt.Fprintf(h, " instr %q %d %d %t %t", in.Name, in.DamageObs, in.DamageSet, in.CriticalObs, in.CriticalSet)
		}
		fmt.Fprintf(h, " succ %v pred %v\n", net.Succ(nd.ID), net.Pred(nd.ID))
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeICL serializes net.
func writeICL(t testing.TB, net *rsn.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := icl.Write(&buf, net); err != nil {
		t.Fatalf("%s: Write: %v", net.Name, err)
	}
	return buf.Bytes()
}

// TestTable1Fingerprints pins every Table I network up to 60k primitives
// and a few random ones, node for node and edge for edge, both as
// generated and after an ICL round trip.
func TestTable1Fingerprints(t *testing.T) {
	want := map[string]string{
		"TreeFlat":       "0848cf2ae74710d6",
		"TreeUnbalanced": "24c56b3ebbc29b59",
		"TreeBalanced":   "fa98e8a82e429137",
		"TreeFlat_Ex":    "1677cf0ac5d0c240",
		"q12710":         "013ecddf3c180c81",
		"a586710":        "89480e00fa8a959a",
		"p34392":         "ec70e084d127bd0b",
		"t512505":        "2adf947e89a5761c",
		"p22810":         "a5110be786b6f465",
		"p93791":         "cd60b514cf2b2529",
		"MBIST_1_5_5":    "88a6ba16b54a7e06",
		"MBIST_1_5_20":   "5cf90d84542c4585",
		"MBIST_1_20_20":  "7d3ae279e766be34",
		"MBIST_2_5_5":    "c447c71912e86f4b",
		"MBIST_2_5_20":   "9d66e1d2768e88a9",
		"MBIST_2_20_20":  "98fdb594828ad010",
		"MBIST_5_5_5":    "5a4b7fbd884bf5e6",
		"MBIST_5_20_20":  "48e77dcc1ea2d8e2",
		"random-1":       "75b49fbaadd157aa",
		"random-2":       "c598b2287c060a45",
		"random-3":       "70f9204cf55189db",
	}
	var nets []*rsn.Network
	for _, e := range Table1 {
		if e.Segments+e.Muxes > 60000 {
			continue
		}
		net, err := GenerateEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, opt := range []RandomOptions{
		{Seed: 1, TargetPrims: 300, SegmentControls: true},
		{Seed: 2, TargetPrims: 2000},
		{Seed: 3, TargetPrims: 5000, MaxDepth: 6, SegmentControls: true},
	} {
		nets = append(nets, Random(opt))
	}
	if len(nets) != len(want) {
		t.Fatalf("%d networks, %d pinned fingerprints", len(nets), len(want))
	}
	for _, net := range nets {
		if got := fingerprint(net); got != want[net.Name] {
			t.Errorf("%s: fingerprint %s, want %s", net.Name, got, want[net.Name])
		}
		back, err := icl.Parse(bytes.NewReader(writeICL(t, net)))
		if err != nil {
			t.Fatalf("%s: Parse: %v", net.Name, err)
		}
		if got := fingerprint(back); got != want[net.Name] {
			t.Errorf("%s: fingerprint after ICL round trip %s, want %s", net.Name, got, want[net.Name])
		}
	}
}

// TestNetworkBuildAllocs gates construction at well under one allocation
// per node: building a network allocates per network and per section,
// not per segment.
func TestNetworkBuildAllocs(t *testing.T) {
	e, _ := Lookup("MBIST_5_20_20")
	net, err := GenerateEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(net.NumNodes() / 8)
	gen := testing.AllocsPerRun(3, func() {
		if _, err := GenerateEntry(e); err != nil {
			t.Fatal(err)
		}
	})
	src := writeICL(t, net)
	parse := testing.AllocsPerRun(3, func() {
		if _, err := icl.Parse(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes: GenerateEntry %.0f allocs, icl.Parse %.0f allocs, limit %.0f", net.NumNodes(), gen, parse, limit)
	if gen > limit {
		t.Errorf("GenerateEntry(%s) makes %.0f allocations, limit %.0f", e.Name, gen, limit)
	}
	if parse > limit {
		t.Errorf("icl.Parse(%s) makes %.0f allocations, limit %.0f", e.Name, parse, limit)
	}
}

var sinkNet *rsn.Network

func BenchmarkGenerateEntry(b *testing.B) {
	for _, name := range []string{"MBIST_5_100_20", "MBIST_20_20_20"} {
		e, _ := Lookup(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net, err := GenerateEntry(e)
				if err != nil {
					b.Fatal(err)
				}
				sinkNet = net
			}
		})
	}
}
