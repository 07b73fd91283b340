package icl

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"rsnrobust/internal/rsn"
)

// ErrSyntax wraps all parse failures.
var ErrSyntax = errors.New("icl: syntax error")

// maxLine is the length in bytes, without its newline, of the longest
// line Parse accepts.
const maxLine = 1<<22 - 1

// instrChunk is the number of instruments allocated together.
const instrChunk = 512

// Parse reads a network description in the format emitted by Write.
// The result is structurally validated.
//
// The input is read into one string and handed to ParseString.
func Parse(r io.Reader) (*rsn.Network, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(src)
}

// ParseString parses a network description held in src, like Parse.
// Every name in the network is a substring of src, so src is not
// copied.
func ParseString(src string) (*rsn.Network, error) {
	lines, err := countLines(src)
	if err != nil {
		return nil, err
	}
	p := &parser{rest: src}
	head, err := p.nextLine()
	if err != nil {
		return nil, err
	}
	if len(head) != 2 || head[0] != "network" {
		return nil, p.errf("expected 'network <name>', got %q", strings.Join(head, " "))
	}
	b := rsn.NewBuilder(head[1])
	p.net = b.Network()
	// A line yields about one node. The byte cap keeps a file of short
	// junk lines from reserving much more memory than its own size.
	p.net.Grow(min(lines, len(src)/16))
	stop, err := p.elements(b, "end")
	if err != nil {
		return nil, err
	}
	if stop[0] != "end" {
		return nil, p.errf("expected 'end', got %q", stop[0])
	}
	net := b.Finish()
	if err := p.resolveControls(); err != nil {
		return nil, err
	}
	if err := rsn.Validate(net); err != nil {
		return nil, err
	}
	return net, nil
}

// readAll returns the whole input as one string, sized up front when r
// reports its length, as strings.Reader and bytes.Reader do.
func readAll(r io.Reader) (string, error) {
	var sb strings.Builder
	if lr, ok := r.(interface{ Len() int }); ok {
		sb.Grow(lr.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", fmt.Errorf("icl: read: %w", err)
	}
	return sb.String(), nil
}

// countLines returns the number of lines in src and rejects a line
// longer than maxLine.
func countLines(src string) (int, error) {
	n := 0
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		n++
		if len(line) > maxLine {
			return 0, fmt.Errorf("%w: line %d: longer than %d bytes", ErrSyntax, n, maxLine)
		}
	}
	return n, nil
}

type parser struct {
	rest string   // the input after the last line read
	line int      // number of the last line read
	toks []string // tokens of the last line read, reused for the next

	net    *rsn.Network
	ctrls  []ctrlFixup
	instrs []rsn.Instrument // current chunk of instruments to hand out
}

type ctrlFixup struct {
	mux      rsn.NodeID
	segName  string
	bit, wid int
	line     int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrSyntax, p.line, fmt.Sprintf(format, args...))
}

// nextLine returns the tokens of the next line that is neither blank nor
// a comment. The tokens are substrings of the input, so they stay valid,
// but the slice holding them is overwritten by the following call.
func (p *parser) nextLine() ([]string, error) {
	for p.rest != "" {
		var line string
		line, p.rest, _ = strings.Cut(p.rest, "\n")
		p.line++
		p.toks = fields(p.toks[:0], line)
		if len(p.toks) > 0 && p.toks[0][0] != '#' {
			return p.toks, nil
		}
	}
	return nil, fmt.Errorf("%w: unexpected end of input", ErrSyntax)
}

// asciiSpace marks the ASCII bytes for which unicode.IsSpace holds.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields appends the tokens of line to toks with the result of
// strings.Fields: tokens are separated by runs of unicode.IsSpace.
func fields(toks []string, line string) []string {
	start := -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				toks = append(toks, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		toks = append(toks, line[start:])
	}
	return toks
}

// newInstrument returns a zero instrument. Instruments are allocated in
// chunks; a chunk is never grown, so earlier pointers stay valid.
func (p *parser) newInstrument() *rsn.Instrument {
	if len(p.instrs) == cap(p.instrs) {
		p.instrs = make([]rsn.Instrument, 0, instrChunk)
	}
	p.instrs = p.instrs[:len(p.instrs)+1]
	return &p.instrs[len(p.instrs)-1]
}

// resolveControls points every mux read from a control clause at its
// source segment. Names need not be unique; as with rsn.Network.Lookup,
// the lowest ID bearing the name wins.
func (p *parser) resolveControls() error {
	if len(p.ctrls) == 0 {
		return nil
	}
	ids := make(map[string]rsn.NodeID, len(p.ctrls))
	for _, fx := range p.ctrls {
		ids[fx.segName] = rsn.None
	}
	p.net.Nodes(func(nd *rsn.Node) {
		if id, ok := ids[nd.Name]; ok && id == rsn.None {
			ids[nd.Name] = nd.ID
		}
	})
	for _, fx := range p.ctrls {
		src := ids[fx.segName]
		if src == rsn.None {
			return fmt.Errorf("%w: line %d: control segment %q not found", ErrSyntax, fx.line, fx.segName)
		}
		p.net.Node(fx.mux).Ctrl = rsn.Control{Source: src, Bit: fx.bit, Width: fx.wid}
	}
	return nil
}

// elements parses chain elements into b until a line starting with one
// of the stop tokens (or "}") appears; that line is consumed and
// returned.
func (p *parser) elements(b *rsn.Builder, stops ...string) ([]string, error) {
	for {
		toks, err := p.nextLine()
		if err != nil {
			return nil, err
		}
		if toks[0] == "}" {
			return toks, nil
		}
		stopped := false
		for _, s := range stops {
			if toks[0] == s {
				stopped = true
			}
		}
		if stopped {
			return toks, nil
		}
		switch toks[0] {
		case "segment":
			err = p.segment(b, toks)
		case "fork":
			err = p.fork(b, toks)
		case "sib":
			err = p.sib(b, toks)
		default:
			err = p.errf("unknown element %q", toks[0])
		}
		if err != nil {
			return nil, err
		}
	}
}

// segment <name> <length> [instrument ...] [hardened]
func (p *parser) segment(b *rsn.Builder, toks []string) error {
	if len(toks) < 3 {
		return p.errf("segment needs a name and a length")
	}
	length, err := strconv.Atoi(toks[2])
	if err != nil || length <= 0 {
		return p.errf("bad segment length %q", toks[2])
	}
	at, err := p.attrs(toks[3:])
	if err != nil {
		return err
	}
	id := b.Segment(toks[1], length, at.instr)
	p.net.Node(id).Hardened = at.hardened
	return nil
}

// fork <name> { branch { ... } ... } join <mux> <ctrl> [hardened]
func (p *parser) fork(b *rsn.Builder, toks []string) error {
	if len(toks) != 3 || toks[2] != "{" {
		return p.errf("expected 'fork <name> {'")
	}
	name := toks[1] // toks is overwritten by the next line read
	bs := b.ForkAny(name)
	branches := 0
	for {
		line, err := p.nextLine()
		if err != nil {
			return err
		}
		switch line[0] {
		case "branch":
			if len(line) != 2 || line[1] != "{" {
				return p.errf("expected 'branch {'")
			}
			branches++
			if stop, err := p.elements(bs.NewBranch()); err != nil {
				return err
			} else if len(stop) != 1 || stop[0] != "}" {
				return p.errf("branch of fork %q must close with a bare '}'", name)
			}
		case "}":
			if branches < 2 {
				return p.errf("fork %q needs at least two branches", name)
			}
			if len(line) < 3 || line[1] != "join" {
				return p.errf("expected '} join <mux> ...' closing fork %q", name)
			}
			return p.join(bs, line[2:])
		default:
			return p.errf("expected 'branch {' or '} join ...' in fork %q", name)
		}
	}
}

// join clause tokens after "} join".
func (p *parser) join(bs *rsn.BranchSet, toks []string) error {
	if len(toks) < 2 {
		return p.errf("join needs a mux name and a control clause")
	}
	muxName := toks[0]
	rest := toks[1:]
	var fix *ctrlFixup
	switch rest[0] {
	case "external":
		rest = rest[1:]
	case "control":
		if len(rest) < 4 {
			return p.errf("control needs '<segment> <bit> <width>'")
		}
		bit, err1 := strconv.Atoi(rest[2])
		wid, err2 := strconv.Atoi(rest[3])
		if err1 != nil || err2 != nil {
			return p.errf("bad control bits %q %q", rest[2], rest[3])
		}
		fix = &ctrlFixup{segName: rest[1], bit: bit, wid: wid, line: p.line}
		rest = rest[4:]
	default:
		return p.errf("expected 'external' or 'control', got %q", rest[0])
	}
	hardened := false
	for _, t := range rest {
		if t != "hardened" {
			return p.errf("unknown join attribute %q", t)
		}
		hardened = true
	}
	mux := bs.Join(muxName, rsn.External())
	p.net.Node(mux).Hardened = hardened
	if fix != nil {
		fix.mux = mux
		p.ctrls = append(p.ctrls, *fix)
	}
	return nil
}

// sib <name> { ... } [instrument ...] [hardenedreg] [hardenedmux]
func (p *parser) sib(b *rsn.Builder, toks []string) error {
	if len(toks) != 3 || toks[2] != "{" {
		return p.errf("expected 'sib <name> {'")
	}
	name := toks[1] // toks is overwritten by the next line read
	var closing []string
	var subErr error
	reg, mux := b.SIB(name, nil, func(sb *rsn.Builder) {
		closing, subErr = p.elements(sb)
	})
	if subErr != nil {
		return subErr
	}
	if len(closing) == 0 || closing[0] != "}" {
		return p.errf("sib %q must close with '}'", name)
	}
	at, err := p.attrs(closing[1:])
	if err != nil {
		return err
	}
	rn := p.net.Node(reg)
	rn.Instr = at.instr
	rn.Hardened = at.hreg
	p.net.Node(mux).Hardened = at.hmux
	return nil
}

type attrSet struct {
	instr      *rsn.Instrument
	hardened   bool
	hreg, hmux bool
}

// attrs parses trailing attributes: an optional instrument clause and
// hardening keywords.
func (p *parser) attrs(toks []string) (attrSet, error) {
	var at attrSet
	i := 0
	for i < len(toks) {
		switch toks[i] {
		case "instrument":
			if i+1 >= len(toks) {
				return at, p.errf("instrument needs a name")
			}
			at.instr = p.newInstrument()
			at.instr.Name = toks[i+1]
			i += 2
			for i+1 < len(toks) && (toks[i] == "obs" || toks[i] == "set") {
				v, err := strconv.ParseInt(toks[i+1], 10, 64)
				if err != nil || v < 0 {
					return at, p.errf("bad %s weight %q", toks[i], toks[i+1])
				}
				if toks[i] == "obs" {
					at.instr.DamageObs = v
				} else {
					at.instr.DamageSet = v
				}
				i += 2
			}
			for i < len(toks) && (toks[i] == "critobs" || toks[i] == "critset") {
				if toks[i] == "critobs" {
					at.instr.CriticalObs = true
				} else {
					at.instr.CriticalSet = true
				}
				i++
			}
		case "hardened":
			at.hardened = true
			i++
		case "hardenedreg":
			at.hreg = true
			i++
		case "hardenedmux":
			at.hmux = true
			i++
		default:
			return at, p.errf("unknown attribute %q", toks[i])
		}
	}
	return at, nil
}
