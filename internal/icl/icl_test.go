package icl

import (
	"bytes"
	"errors"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/rsn"
)

// roundTrip writes and re-parses a network, returning the copy.
func roundTrip(t *testing.T, net *rsn.Network) *rsn.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, net); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, buf.String())
	}
	return got
}

// equalNetworks compares two networks structurally.
func equalNetworks(a, b *rsn.Network) string {
	if a.Name != b.Name {
		return "names differ"
	}
	if a.NumNodes() != b.NumNodes() {
		return "node counts differ"
	}
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(rsn.NodeID(i)), b.Node(rsn.NodeID(i))
		if na.Kind != nb.Kind || na.Name != nb.Name || na.Length != nb.Length ||
			na.SIB != nb.SIB || na.Hardened != nb.Hardened ||
			na.Partner != nb.Partner || na.Ctrl != nb.Ctrl {
			return "node " + na.Name + " differs"
		}
		if (na.Instr == nil) != (nb.Instr == nil) {
			return "instrument presence differs at " + na.Name
		}
		if na.Instr != nil && *na.Instr != *nb.Instr {
			return "instrument differs at " + na.Name
		}
		if !slices.Equal(a.Succ(rsn.NodeID(i)), b.Succ(rsn.NodeID(i))) {
			return "successors differ at " + na.Name
		}
		if !slices.Equal(a.Pred(rsn.NodeID(i)), b.Pred(rsn.NodeID(i))) {
			return "predecessors (mux ports) differ at " + na.Name
		}
	}
	return ""
}

func TestRoundTripFixtures(t *testing.T) {
	for _, net := range []*rsn.Network{
		fixture.PaperExample(),
		fixture.SIBChain(4),
		fixture.NestedSIBs(),
	} {
		got := roundTrip(t, net)
		if diff := equalNetworks(net, got); diff != "" {
			t.Errorf("%s: %s", net.Name, diff)
		}
	}
}

func TestRoundTripHardened(t *testing.T) {
	net := fixture.PaperExample()
	net.Node(net.Lookup("m0")).Hardened = true
	net.Node(net.Lookup("i1")).Hardened = true
	got := roundTrip(t, net)
	if !got.Node(got.Lookup("m0")).Hardened || !got.Node(got.Lookup("i1")).Hardened {
		t.Error("hardening marks lost in round trip")
	}
}

func TestRoundTripRandom(t *testing.T) {
	check := func(seed int64) bool {
		net := benchnets.Random(benchnets.RandomOptions{Seed: seed, TargetPrims: 50, SegmentControls: true})
		var buf bytes.Buffer
		if err := Write(&buf, net); err != nil {
			t.Logf("seed %d: Write: %v", seed, err)
			return false
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: Parse: %v", seed, err)
			return false
		}
		if diff := equalNetworks(net, got); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripBenchmark(t *testing.T) {
	for _, name := range []string{"TreeBalanced", "MBIST_5_20_20", "p93791"} {
		net, err := benchnets.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTrip(t, net)
		if diff := equalNetworks(net, got); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// errLine returns the line number an ErrSyntax message reports, or 0
// when it reports none.
func errLine(err error) int {
	m := regexp.MustCompile(`: line (\d+): `).FindStringSubmatch(err.Error())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		line int // reported line; 0 for unexpected end of input
	}{
		{"", 0},
		{"segment a 4", 1},
		{"network x\nsegment a 0\nend", 2},
		{"network x\nsegment a 4\nwhatever\nend", 3},
		{"network x\nfork f {\nbranch {\nsegment a 1\n}\n} join m external\nend", 6},           // one branch
		{"network x\nsegment a 1\nfork f {\nbranch {\n}\nbranch {\n}\n} join m bogus\nend", 8}, // bad ctrl
		{"network x\nsegment a 1 instrument i obs -3\nend", 2},
		{"network x\nsegment a 1\nsib s {\nsegment b 1\n", 0}, // unterminated
		{"network x\r\n\r\n# c\r\n  segment a 4\r\n\tbogus 1\r\nend\r\n", 5},
		{"network x\n  # comment\n\n  segment cfg 2\n  fork f {\n    branch {\n      segment a 1\n    }\n    branch {\n    }\n  } join m control nosuch 0 1\nend", 11},
		{"network x\n segment a 4 \nsegment b x\nend", 3},
		{"network x\nsegment a 4 # not a comment mid-line\nend", 2},
		{"network x\nfork f {\nbranch {\n}\nbranch {\n}\n}\nend", 7},
		{"network x\nsib s {\nsegment a 1\n} bogus\nend", 4},
		{"network x\nfork f {\nbranch {\nsegment a 1\n} extra\nbranch {\n}\n} join m external\nend", 5},
		{"network x\nsegment a 1\nfork f {\nbranch {\n}\nbranch {\n}\n} join m control a 0 1 hardened bogus\nend", 8},
		{"network x\nsegment a 1\n", 0},
	}
	for i, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("case %d: Parse accepted invalid input %q", i, c.in)
			continue
		}
		if !errors.Is(err, ErrSyntax) {
			t.Errorf("case %d: error %v does not wrap ErrSyntax", i, err)
		}
		if got := errLine(err); got != c.line {
			t.Errorf("case %d: error %q reports line %d, want %d", i, err, got, c.line)
		}
	}
}

// TestParseLineLimit keeps the 4 MiB line limit: a line of 1<<22 bytes
// or more, newline excluded, is rejected wherever it appears.
func TestParseLineLimit(t *testing.T) {
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	ok := "network x\n" + comment(1<<22-1) + "\nsegment a 4\nend\n" + comment(1<<22-1)
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Fatalf("Parse rejected lines of 1<<22-1 bytes: %.100v", err)
	}
	for _, in := range []string{
		"network x\n" + comment(1<<22) + "\nsegment a 4\nend\n",
		"network x\n" + comment(1<<22-1) + "\r\nsegment a 4\nend\n",
		"network x\nsegment a 4\nend\n" + comment(1<<22),
	} {
		_, err := Parse(strings.NewReader(in))
		if !errors.Is(err, ErrSyntax) {
			t.Fatalf("long line: error %.100v does not wrap ErrSyntax", err)
		}
		if want := strings.Count(in[:strings.Index(in, "#")], "\n") + 1; errLine(err) != want {
			t.Errorf("long line: error %.100v, want line %d", err, want)
		}
	}
}

// TestParseBlankLinesReserveLittle keeps a flood of blank lines, which
// adds no nodes, from making Parse reserve room for a node per line.
func TestParseBlankLinesReserveLittle(t *testing.T) {
	in := "network x\n" + strings.Repeat("\n", 1<<20) + "segment a 1\nend\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Parse(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("Parse of %d bytes allocated %d bytes", len(in), got)
	}
}

func TestParseComments(t *testing.T) {
	in := `# a comment
network c
  # indented comment
  segment a 4

  segment b 2 instrument x obs 3 set 4 critobs
end`
	net, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	bseg := net.Node(net.Lookup("b"))
	if bseg.Instr == nil || bseg.Instr.DamageObs != 3 || !bseg.Instr.CriticalObs {
		t.Errorf("instrument attributes wrong: %+v", bseg.Instr)
	}
}

func TestParseControlForwardReference(t *testing.T) {
	// The control segment appears after the fork in the file order used
	// here (inside a later element), exercising the fixup pass... and a
	// control source before the fork in path order:
	in := `network fw
  segment cfg 2
  fork f {
    branch {
      segment a 1
    }
    branch {
      segment b 1
    }
  } join m control cfg 0 2
end`
	net, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := net.Node(net.Lookup("m"))
	if m.Ctrl.Source != net.Lookup("cfg") || m.Ctrl.Width != 2 {
		t.Errorf("control fixup failed: %+v", m.Ctrl)
	}
	_, err = Parse(strings.NewReader(strings.Replace(in, "control cfg", "control nosuch", 1)))
	if !errors.Is(err, ErrSyntax) || errLine(err) != 10 {
		t.Errorf("dangling control reference: error %v, want ErrSyntax at line 10", err)
	}
}

// TestParseControlDuplicateNames resolves a control clause naming
// several nodes to the lowest ID bearing the name, as Network.Lookup
// does, even when a node with a higher ID comes first in the file.
func TestParseControlDuplicateNames(t *testing.T) {
	in := `network dup
  sib cfg {
    segment cfg 3
  }
  segment cfg 2
  fork f {
    branch {
      segment a 1
    }
    branch {
    }
  } join m control cfg 1 1
end`
	net, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	src := net.Node(net.Lookup("m")).Ctrl.Source
	if src != net.Lookup("cfg") || net.Node(src).Length != 3 {
		t.Errorf("control source %d (length %d), want the lowest ID named cfg, %d",
			src, net.Node(src).Length, net.Lookup("cfg"))
	}
}

func TestErrSyntaxWrapped(t *testing.T) {
	_, err := Parse(strings.NewReader("garbage"))
	if !errors.Is(err, ErrSyntax) {
		t.Fatalf("error %v does not wrap ErrSyntax", err)
	}
}
