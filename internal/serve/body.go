package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ReadBody reads the whole request body once, under limit bytes. A
// body with a declared Content-Length is read into one buffer of that
// size, and a declared length over limit is refused before anything is
// read or allocated. On failure the status is 413 for a body over the
// cap and 400 for any other read error, such as a client that hung up
// mid-body; the error text is ready for the response.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body: %w", &http.MaxBytesError{Limit: limit})
	}
	size := r.ContentLength
	if size < 0 {
		size = bytes.MinRead
	}
	b, err := readBody(http.MaxBytesReader(w, r.Body, limit), make([]byte, 0, size))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body: %w", err)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("body: read: %w", err)
	}
	return b, 0, nil
}

// readBody appends everything r yields to b. A full buffer grows only
// after a one-byte read finds more data, so a body that keeps its
// Content-Length costs exactly the one allocation its caller made.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			var probe [1]byte
			n, err := r.Read(probe[:])
			b = append(b, probe[:n]...)
			if err == io.EOF {
				return b, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeReference is the request decoder of record: encoding/json reads
// the first JSON value of body into v and refuses unknown fields.
// decodeRequest must agree with it on every body.
func decodeReference(body []byte, v any) error {
	return decodeJSON(bytes.NewReader(body), v)
}

func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeRequest decodes body into v, whose network reference is net,
// with the result and error text of decodeReference. The top-level
// network.icl string, nearly all of an inline-ICL upload, is found by
// findICL and unescaped once into net.ICL; encoding/json decodes the
// rest of the document with that string emptied. A body the scan
// cannot prove equivalent goes to decodeReference whole. On error, v
// may be filled differently from what decodeReference leaves.
func decodeRequest(body []byte, v any, net *NetworkRef) error {
	start, end, ok := findICL(body)
	if !ok {
		return decodeReference(body, v)
	}
	text, ok := unquoteICL(body[start+1 : end-1])
	if !ok {
		return decodeReference(body, v)
	}
	rest := io.MultiReader(bytes.NewReader(body[:start]), strings.NewReader(`""`), bytes.NewReader(body[end:]))
	if err := decodeJSON(rest, v); err != nil {
		return err
	}
	net.ICL = text
	return nil
}

// findICL returns the span body[start:end], quotes included, of the
// string value of the key "icl" in the object value of the top-level
// key "network". ok is false when there is none, or when decoding the
// document with that string emptied might differ from decoding it
// whole: a top-level value or a "network" that is not an object, an
// "icl" that is not a string, a key at either level that holds an
// escape or a byte outside printable ASCII, and a repeated or
// case-folded "network" or "icl", which encoding/json would also bind.
//
// The scan checks syntax only as far as it must. A syntax error
// before the string reads the same with the string emptied; one after
// it does too, because a string token leaves the JSON scanner in the
// same state whatever it holds; and unquoteICL refuses any string
// with an error inside.
func findICL(body []byte) (start, end int, ok bool) {
	s := &docScan{b: body}
	var network, found bool
	walked := s.object(func(key []byte) bool {
		switch {
		case string(key) == "network" && !network:
			network = true
			return s.object(func(key []byte) bool {
				switch {
				case string(key) == "icl" && !found && s.at('"'):
					start = s.i
					end, found = stringEnd(body, s.i)
					s.i = end
					return found
				case strings.EqualFold(string(key), "icl"):
					return false
				}
				return s.skip()
			})
		case strings.EqualFold(string(key), "network"):
			return false
		}
		return s.skip()
	})
	return start, end, walked && found
}

// docScan walks a JSON document from b[i].
type docScan struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *docScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// at skips whitespace and reports whether the next byte is c.
func (s *docScan) at(c byte) bool {
	s.ws()
	return s.i < len(s.b) && s.b[s.i] == c
}

// eat consumes the next byte if at(c).
func (s *docScan) eat(c byte) bool {
	if !s.at(c) {
		return false
	}
	s.i++
	return true
}

// object walks the object at s.i, calling member with each key once
// s.i is at the key's value; member consumes the value.
func (s *docScan) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		if !s.at('"') {
			return false
		}
		end, ok := stringEnd(s.b, s.i)
		if !ok {
			return false
		}
		key := s.b[s.i+1 : end-1]
		s.i = end
		if !plainKey(key) || !s.eat(':') {
			return false
		}
		s.ws()
		if !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// skip consumes the value at s.i without checking it: a string, an
// object or array up to its balancing bracket, or a bare literal up to
// the next delimiter.
func (s *docScan) skip() bool {
	depth := 0
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			end, ok := stringEnd(s.b, s.i)
			if !ok {
				return false
			}
			s.i = end
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true
			}
			depth--
			if depth == 0 {
				s.i++
				return true
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return true
			}
		}
		s.i++
	}
	return false
}

// stringEnd returns the index just past the closing quote of the string
// literal opening at b[i]: the first quote after it not escaped by an
// odd run of backslashes. ok is false for an unterminated literal.
func stringEnd(b []byte, i int) (int, bool) {
	for from := i + 1; ; {
		q := bytes.IndexByte(b[from:], '"')
		if q < 0 {
			return 0, false
		}
		q += from
		k := q
		for k > i+1 && b[k-1] == '\\' {
			k--
		}
		if (q-k)%2 == 0 {
			return q + 1, true
		}
		from = q + 1
	}
}

// plainKey reports whether key is printable ASCII with no escape, so
// that encoding/json binds it by ASCII case folding alone.
func plainKey(key []byte) bool {
	return bytes.IndexByte(key, '\\') < 0 && printableASCII(key)
}

// unescapes maps the byte after a backslash to the byte it stands for,
// for every JSON escape but \u.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquoteICL decodes lit, the content of a JSON string literal, into a
// string that shares no memory with it. ok is false for what it leaves
// to encoding/json: a byte outside printable ASCII, a \u escape or an
// invalid escape.
func unquoteICL(lit []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(lit))
	for {
		j := bytes.IndexByte(lit, '\\')
		if j < 0 {
			j = len(lit)
		}
		if !printableASCII(lit[:j]) {
			return "", false
		}
		sb.Write(lit[:j])
		if j == len(lit) {
			return sb.String(), true
		}
		if j+1 == len(lit) || unescapes[lit[j+1]] == 0 {
			return "", false
		}
		sb.WriteByte(unescapes[lit[j+1]])
		lit = lit[j+2:]
	}
}

// printableASCII reports whether every byte of b is in 0x20–0x7E. It
// tests eight bytes at a time: a byte below 0x20 borrows into its top
// bit when 0x20 is subtracted, and a byte above 0x7E carries into its
// top bit when 1 is added, or has it set already.
func printableASCII(b []byte) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		if ((w-0x20*ones)&^w|(w+ones)|w)&tops != 0 {
			return false
		}
	}
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}
