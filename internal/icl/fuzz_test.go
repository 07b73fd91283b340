package icl

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"
)

// referenceLines is the oracle for the parser's tokenizer: bufio.Scanner
// lines, strings.Fields of each trimmed line, blank lines and lines
// starting with '#' skipped. It returns the tokens of each kept line and
// its line number.
func referenceLines(in string) (toks [][]string, lines []int, ok bool) {
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	n := 0
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks = append(toks, strings.Fields(line))
		lines = append(lines, n)
	}
	return toks, lines, sc.Err() == nil
}

// checkTokens drives the parser's line reader over in and compares every
// line it yields with the oracle.
func checkTokens(t *testing.T, in string) {
	t.Helper()
	want, wantLines, ok := referenceLines(in)
	if !ok {
		return
	}
	p := &parser{rest: in}
	for i := 0; ; i++ {
		toks, err := p.nextLine()
		if err != nil {
			if i != len(want) {
				t.Fatalf("tokenizer stopped after %d lines, oracle has %d\ninput: %q", i, len(want), in)
			}
			return
		}
		if i >= len(want) {
			t.Fatalf("tokenizer yields line %d %q past the oracle's %d lines\ninput: %q", p.line, toks, len(want), in)
		}
		if p.line != wantLines[i] || !slices.Equal(toks, want[i]) {
			t.Fatalf("tokenizer yields line %d %q, oracle line %d %q\ninput: %q", p.line, toks, wantLines[i], want[i], in)
		}
	}
}

// FuzzParseICL feeds arbitrary text to the parser. The tokenizer must
// agree with strings.Fields line by line. Any input that parses must
// validate, serialize, and re-parse to a structurally identical network
// (round-trip stability); no input may panic.
func FuzzParseICL(f *testing.F) {
	seeds := []string{
		"network a\n  segment s 4\nend",
		"network b\n  sib x {\n    segment i 8 instrument t obs 2 set 3 critobs\n  }\nend",
		"network c\n  fork f {\n    branch {\n      segment p 1\n    }\n    branch {\n    }\n  } join m external\nend",
		"network d\n  segment cfg 2\n  fork f {\n    branch {\n      segment q 2 hardened\n    }\n    branch {\n      segment r 3\n    }\n  } join m control cfg 0 2 hardened\nend",
		"network e\n  sib outer {\n    sib inner {\n      segment deep 5\n    } hardenedreg\n  } instrument oi obs 1 set 1 hardenedmux\nend",
		"garbage",
		"network incomplete\n  fork f {",
		"network x\nsegment s 0\nend",
		"network crlf\r\n\tsegment s\v4\f\r\n\r\nend\r\n",
		"network nbsp\n\u00a0segment\u00a0s 4\u0085instrument t\u2028obs 1 set 2\nend\n",
		"network c2\n   # indented comment\n  segment s 4 # mid-line hash\n\t#tab comment\nend\n",
		"network eof\n  segment s 4\nend",
		"\n\n  \t\n#\n network x \n segment\u2028a 1\n end \n\n",
		"network zw\n\u200bsegment s 4\nend\n\xc2\n\xa0\u00a0#\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkTokens(t, in)
		net, err := Parse(strings.NewReader(in))
		if err != nil {
			return // invalid input rejected: fine
		}
		var buf bytes.Buffer
		if err := Write(&buf, net); err != nil {
			t.Fatalf("parsed network fails to serialize: %v\ninput: %q", err, in)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("serialized network fails to re-parse: %v\nserialized:\n%s", err, buf.String())
		}
		if net.NumNodes() != again.NumNodes() {
			t.Fatalf("round trip changed node count: %d -> %d", net.NumNodes(), again.NumNodes())
		}
	})
}
