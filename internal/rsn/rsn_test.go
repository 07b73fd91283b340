package rsn

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// buildExample constructs a small two-level network:
// SI -> a -> f0 -> {b ; c} -> m0 -> d -> SO.
func buildExample(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder("example")
	b.Segment("a", 4, &Instrument{Name: "ia", DamageObs: 1, DamageSet: 2})
	bs := b.Fork("f0", 2)
	bs.Branch(0).Segment("b", 2, nil)
	bs.Branch(1).Segment("c", 3, nil)
	bs.Join("m0", External())
	b.Segment("d", 5, nil)
	net := b.Finish()
	if err := Validate(net); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return net
}

func TestBuilderExampleStats(t *testing.T) {
	net := buildExample(t)
	s := net.Stats()
	if s.Segments != 4 {
		t.Errorf("Segments = %d, want 4", s.Segments)
	}
	if s.Muxes != 1 {
		t.Errorf("Muxes = %d, want 1", s.Muxes)
	}
	if s.Fanouts != 1 {
		t.Errorf("Fanouts = %d, want 1", s.Fanouts)
	}
	if s.Instruments != 1 {
		t.Errorf("Instruments = %d, want 1", s.Instruments)
	}
	if s.TotalBits != 4+2+3+5 {
		t.Errorf("TotalBits = %d, want 14", s.TotalBits)
	}
	if s.SIBs != 0 {
		t.Errorf("SIBs = %d, want 0", s.SIBs)
	}
}

func TestBuilderPortOrder(t *testing.T) {
	net := buildExample(t)
	m0 := net.Lookup("m0")
	bID := net.Lookup("b")
	cID := net.Lookup("c")
	if got := net.PortOf(m0, bID); got != 0 {
		t.Errorf("PortOf(m0, b) = %d, want 0", got)
	}
	if got := net.PortOf(m0, cID); got != 1 {
		t.Errorf("PortOf(m0, c) = %d, want 1", got)
	}
	if got := net.PortOf(m0, net.Lookup("a")); got != -1 {
		t.Errorf("PortOf(m0, a) = %d, want -1", got)
	}
}

func TestAllPaths(t *testing.T) {
	net := buildExample(t)
	paths := net.AllPaths()
	if len(paths) != 2 {
		t.Fatalf("AllPaths = %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p[0] != net.ScanIn || p[len(p)-1] != net.ScanOut {
			t.Errorf("path does not run scan-in to scan-out: %v", p)
		}
	}
}

func TestSIBConstruction(t *testing.T) {
	b := NewBuilder("sib")
	reg, mux := b.SIB("s0", nil, func(sb *Builder) {
		sb.Segment("inner", 8, &Instrument{Name: "x"})
	})
	net := b.Finish()
	if err := Validate(net); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rn, mn := net.Node(reg), net.Node(mux)
	if !rn.SIB || !mn.SIB {
		t.Error("SIB components not marked")
	}
	if rn.Partner != mux || mn.Partner != reg {
		t.Error("SIB partner links wrong")
	}
	if rn.Length != 1 {
		t.Errorf("SIB register length = %d, want 1", rn.Length)
	}
	if mn.Ctrl.Source != reg || mn.Ctrl.Width != 1 {
		t.Errorf("SIB mux control = %+v, want source %d width 1", mn.Ctrl, reg)
	}
	// Port 0 must be the bypass wire directly from the fanout.
	preds := net.Pred(mux)
	if len(preds) != 2 {
		t.Fatalf("SIB mux has %d ports, want 2", len(preds))
	}
	if net.Node(preds[0]).Kind != KindFanout {
		t.Errorf("port 0 pred kind = %v, want fanout (bypass)", net.Node(preds[0]).Kind)
	}
	if net.Node(preds[1]).Name != "inner" {
		t.Errorf("port 1 pred = %q, want inner", net.Node(preds[1]).Name)
	}
}

func TestDegenerateSIB(t *testing.T) {
	b := NewBuilder("degenerate")
	b.SIB("s0", nil, nil)
	net := b.Finish()
	if err := Validate(net); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPrimitivesExcludesWiring(t *testing.T) {
	net := buildExample(t)
	for _, id := range net.Primitives() {
		k := net.Node(id).Kind
		if k != KindSegment && k != KindMux {
			t.Errorf("primitive %q has kind %v", net.Node(id).Name, k)
		}
	}
	if got := len(net.Primitives()); got != 5 {
		t.Errorf("len(Primitives) = %d, want 5", got)
	}
}

func TestTopoOrder(t *testing.T) {
	net := buildExample(t)
	order, err := net.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	net.Nodes(func(nd *Node) {
		for _, s := range net.Succ(nd.ID) {
			if pos[nd.ID] >= pos[s] {
				t.Errorf("edge %q->%q violates topological order", nd.Name, net.Node(s).Name)
			}
		}
	})
}

func TestValidateRejectsCycle(t *testing.T) {
	net := NewNetwork("cycle")
	si := net.AddNode(Node{Kind: KindScanIn, Name: "SI"})
	a := net.AddNode(Node{Kind: KindSegment, Name: "a", Length: 1})
	b := net.AddNode(Node{Kind: KindSegment, Name: "b", Length: 1})
	so := net.AddNode(Node{Kind: KindScanOut, Name: "SO"})
	net.AddEdge(si, a)
	net.AddEdge(a, b)
	net.AddEdge(b, a) // cycle; also breaks degree constraints
	net.AddEdge(b, so)
	if err := Validate(net); err == nil {
		t.Fatal("Validate accepted a cyclic network")
	} else if !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v is not ErrInvalid", err)
	}
}

func TestValidateRejectsBadMuxControl(t *testing.T) {
	b := NewBuilder("badctrl")
	seg := b.Segment("cfg", 1, nil) // too narrow for 4 ports
	bs := b.Fork("f0", 4)
	for i := 0; i < 4; i++ {
		bs.Branch(i).Segment(string(rune('a'+i)), 1, nil)
	}
	bs.Join("m0", Control{Source: seg, Bit: 0, Width: 1})
	net := b.Finish()
	if err := Validate(net); err == nil {
		t.Fatal("Validate accepted a mux with too few control bits")
	}
}

func TestValidateRejectsUnreachable(t *testing.T) {
	net := NewNetwork("unreachable")
	si := net.AddNode(Node{Kind: KindScanIn, Name: "SI"})
	a := net.AddNode(Node{Kind: KindSegment, Name: "a", Length: 1})
	net.AddNode(Node{Kind: KindSegment, Name: "orphan", Length: 1})
	so := net.AddNode(Node{Kind: KindScanOut, Name: "SO"})
	net.AddEdge(si, a)
	net.AddEdge(a, so)
	if err := Validate(net); err == nil {
		t.Fatal("Validate accepted an orphan node")
	}
}

// TestValidateRejectsOffPath feeds Validate graphs whose extra nodes
// lie on no scan-in to scan-out path but satisfy every degree rule, so
// only the acyclicity check can catch them, and checks that every node
// of the valid networks does lie on such a path.
func TestValidateRejectsOffPath(t *testing.T) {
	type edge struct{ from, to string }
	cases := []struct {
		name  string
		nodes []Node
		edges []edge
	}{
		{
			name: "detached cycle",
			nodes: []Node{
				{Kind: KindScanIn, Name: "SI"}, {Kind: KindSegment, Name: "a", Length: 1},
				{Kind: KindScanOut, Name: "SO"},
				{Kind: KindSegment, Name: "b", Length: 1}, {Kind: KindSegment, Name: "c", Length: 1},
			},
			edges: []edge{{"SI", "a"}, {"a", "SO"}, {"b", "c"}, {"c", "b"}},
		},
		{
			name: "self-loop segment",
			nodes: []Node{
				{Kind: KindScanIn, Name: "SI"}, {Kind: KindSegment, Name: "a", Length: 1},
				{Kind: KindScanOut, Name: "SO"}, {Kind: KindSegment, Name: "s", Length: 1},
			},
			edges: []edge{{"SI", "a"}, {"a", "SO"}, {"s", "s"}},
		},
		{
			// The second branch of f runs into a mux whose other port
			// it feeds itself: the branch never rejoins the trunk.
			name: "branch that never rejoins",
			nodes: []Node{
				{Kind: KindScanIn, Name: "SI"}, {Kind: KindFanout, Name: "f"},
				{Kind: KindSegment, Name: "a", Length: 1}, {Kind: KindScanOut, Name: "SO"},
				{Kind: KindSegment, Name: "b", Length: 1}, {Kind: KindMux, Name: "m", Ctrl: External()},
				{Kind: KindSegment, Name: "c", Length: 1},
			},
			edges: []edge{{"SI", "f"}, {"f", "a"}, {"a", "SO"}, {"f", "b"}, {"b", "m"}, {"c", "m"}, {"m", "c"}},
		},
	}
	for _, tc := range cases {
		net := NewNetwork(tc.name)
		for _, nd := range tc.nodes {
			net.AddNode(nd)
		}
		for _, e := range tc.edges {
			net.AddEdge(net.Lookup(e.from), net.Lookup(e.to))
		}
		if err := Validate(net); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Validate = %v, want ErrInvalid", tc.name, err)
		}
	}

	sib := NewBuilder("sibs")
	sib.SIB("s0", nil, func(sub *Builder) {
		sub.Segment("x", 2, nil)
		sub.SIB("s1", nil, func(sub *Builder) { sub.Segment("y", 1, nil) })
	})
	sib.Segment("z", 3, nil)
	for _, net := range []*Network{buildExample(t), sib.Finish()} {
		if err := Validate(net); err != nil {
			t.Fatalf("%s: Validate: %v", net.Name, err)
		}
		onPath := make([]bool, net.NumNodes())
		for _, p := range net.AllPaths() {
			for _, id := range p {
				onPath[id] = true
			}
		}
		for i, ok := range onPath {
			if !ok {
				t.Errorf("%s: valid network has node %q on no scan path", net.Name, net.Node(NodeID(i)).Name)
			}
		}
	}
}

func TestValidateRejectsMissingPorts(t *testing.T) {
	net := NewNetwork("noports")
	net.AddNode(Node{Kind: KindSegment, Name: "a", Length: 1})
	if err := Validate(net); err == nil {
		t.Fatal("Validate accepted a network without scan ports")
	}
}

func TestLookup(t *testing.T) {
	net := buildExample(t)
	if net.Lookup("m0") == None {
		t.Error("Lookup(m0) = None")
	}
	if net.Lookup("nope") != None {
		t.Error("Lookup(nope) != None")
	}
}

// TestAdjacencySlicesAreCapped appends to the lists Succ and Pred return
// and checks that no other node's list changes.
func TestAdjacencySlicesAreCapped(t *testing.T) {
	net := buildExample(t)
	var succ, pred [][]NodeID
	for i := 0; i < net.NumNodes(); i++ {
		succ = append(succ, slices.Clone(net.Succ(NodeID(i))))
		pred = append(pred, slices.Clone(net.Pred(NodeID(i))))
	}
	for i := 0; i < net.NumNodes(); i++ {
		_ = append(net.Succ(NodeID(i)), 99)
		_ = append(net.Pred(NodeID(i)), 99)
	}
	for i := 0; i < net.NumNodes(); i++ {
		if !slices.Equal(net.Succ(NodeID(i)), succ[i]) || !slices.Equal(net.Pred(NodeID(i)), pred[i]) {
			t.Errorf("node %q: lists %v/%v after appends, want %v/%v",
				net.Node(NodeID(i)).Name, net.Succ(NodeID(i)), net.Pred(NodeID(i)), succ[i], pred[i])
		}
	}
}

// TestAdjacencyMatchesModel adds random edges, with and without Grow,
// and after each one compares every list with a per-node model. Slices
// taken before an edge was added must keep the contents they had.
func TestAdjacencyMatchesModel(t *testing.T) {
	for _, grow := range []int{0, 10, 1000} {
		rng := rand.New(rand.NewSource(int64(grow)))
		net := NewNetwork("model")
		net.Grow(grow)
		var succ, pred [][]NodeID
		type snap struct {
			got, want []NodeID
		}
		var snaps []snap
		for step := 0; step < 600; step++ {
			if net.NumNodes() < 2 || rng.Intn(4) == 0 {
				net.AddNode(Node{Kind: KindSegment, Length: 1})
				succ, pred = append(succ, nil), append(pred, nil)
				continue
			}
			from, to := NodeID(rng.Intn(net.NumNodes())), NodeID(rng.Intn(net.NumNodes()))
			net.AddEdge(from, to)
			succ[from] = append(succ[from], to)
			pred[to] = append(pred[to], from)
			for i := range succ {
				if !slices.Equal(net.Succ(NodeID(i)), succ[i]) || !slices.Equal(net.Pred(NodeID(i)), pred[i]) {
					t.Fatalf("grow %d, step %d: node %d lists %v/%v, want %v/%v",
						grow, step, i, net.Succ(NodeID(i)), net.Pred(NodeID(i)), succ[i], pred[i])
				}
			}
			snaps = append(snaps, snap{net.Succ(from), slices.Clone(succ[from])}, snap{net.Pred(to), slices.Clone(pred[to])})
		}
		for i, s := range snaps {
			if !slices.Equal(s.got, s.want) {
				t.Fatalf("grow %d: snapshot %d changed to %v, want %v", grow, i, s.got, s.want)
			}
		}
	}
}
