package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/icl"
)

// TestReadBody: one exactly sized buffer for a declared length, 413 for
// a body over the cap whether declared or streamed, 400 for any other
// read failure.
func TestReadBody(t *testing.T) {
	const limit = 64
	small := `{"network":{"name":"TreeFlat"}}`
	cases := []struct {
		name   string
		body   func() *http.Request
		status int
	}{
		{"declared", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/", strings.NewReader(small))
		}, 0},
		{"streamed", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/", iotest.HalfReader(strings.NewReader(small)))
		}, 0},
		{"declared over cap", func() *http.Request {
			// The declared length alone decides: the body is never read,
			// so no buffer of that size is made.
			r := httptest.NewRequest(http.MethodPost, "/", iotest.ErrReader(errors.New("body read")))
			r.ContentLength = 1 << 40
			return r
		}, http.StatusRequestEntityTooLarge},
		{"streamed over cap", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/", iotest.HalfReader(strings.NewReader(strings.Repeat("x", limit+1))))
		}, http.StatusRequestEntityTooLarge},
		{"client hung up", func() *http.Request {
			cut := io.MultiReader(strings.NewReader(small[:9]), iotest.ErrReader(io.ErrUnexpectedEOF))
			return httptest.NewRequest(http.MethodPost, "/", cut)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, status, err := ReadBody(httptest.NewRecorder(), tc.body(), limit)
			if status != tc.status || (err == nil) != (tc.status == 0) {
				t.Fatalf("status %d, err %v; want status %d", status, err, tc.status)
			}
			if err != nil {
				if !strings.HasPrefix(err.Error(), "body: ") {
					t.Errorf("error %q lacks the body: prefix", err)
				}
				return
			}
			if string(b) != small {
				t.Errorf("read %q, want %q", b, small)
			}
		})
	}
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(small))
	if b, _, err := ReadBody(httptest.NewRecorder(), r, limit); err != nil || cap(b) != len(small) {
		t.Errorf("declared %d bytes: cap %d, err %v; want one buffer of exactly that size", len(small), cap(b), err)
	}
}

// TestPrintableASCII holds the word-at-a-time test to the byte test for
// every byte value at every offset of a word and of the tail.
func TestPrintableASCII(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c >= 0x20 && c <= 0x7e
		for at := 0; at < 11; at++ {
			b := []byte(strings.Repeat("~ ", 6)[:11])
			b[at] = byte(c)
			if got := printableASCII(b); got != want {
				t.Fatalf("byte %#x at %d: printableASCII = %v, want %v", c, at, got, want)
			}
		}
	}
}

// checkDecode holds decodeRequest to decodeReference on one body: the
// same error text, and on success the same value.
func checkDecode[T any](t *testing.T, body []byte, network func(*T) *NetworkRef) {
	t.Helper()
	orig := append([]byte(nil), body...)
	var want, got T
	wantErr := decodeReference(body, &want)
	gotErr := decodeRequest(body, &got, network(&got))
	if !bytes.Equal(body, orig) {
		t.Fatalf("%T: decodeRequest modified its input", want)
	}
	if errText(wantErr) != errText(gotErr) {
		t.Fatalf("%T on %q:\nerror %q\nreference %q", want, body, errText(gotErr), errText(wantErr))
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T on %q:\ndecoded %+v\nreference %+v", want, body, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decodeSeeds returns request bodies that take the one-pass path, and
// bodies that leave it, one or more for each reason.
func decodeSeeds(t testing.TB) (onePass, fallback []string) {
	analyze, err := json.Marshal(AnalyzeRequest{Network: NetworkRef{ICL: inlineICL}, Spec: SpecRef{Generate: true, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	harden, err := json.Marshal(HardenRequest{
		Network: NetworkRef{ICL: inlineICL},
		Spec:    SpecRef{Generate: true, Seed: 11},
		Options: HardenOptions{Generations: 40, Seed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	onePass = []string{
		// Shaped like the benchmark's uploads.
		string(analyze),
		string(harden),
		`{"network":{"icl":"a\"b\\c\/d\b\f\n\r\t"},"spec":{"seed":1},"top_damages":3,"scope":"control"}`,
		`{"options":{"objectives":["damage","cost"],"resume":"AAAA"},"network":{"icl":"x"},"spec":{}}`,
		// Whitespace, trailing bytes and empty values.
		" \t\r\n{ \"network\" : { \"icl\" : \"a\\nb\" } , \"spec\" : { } } \n",
		`{"network":{"icl":"a"}} trailing`,
		`{"network":{"icl":"a"}}{"network":{"icl":"b"}}`,
		`{"network":{"icl":""}}`,
		// Errors around the string.
		`{"bogus":1,"network":{"icl":"a"}}`,
		`{"network":{"icl":"a","bogus":1}}`,
		`{"network":{"icl":"a"},"top_damages":1.5}`,
		`{"network":{"icl":"a"},"top_damages":"3"}`,
		`{"spec":{"seed":tru},"network":{"icl":"a"}}`,
		`{"spec":[}, "network":{"icl":"a"}}`,
		`{"network":{"name":"TreeFlat","icl":"a"}}`,
	}
	fallback = []string{
		// No inline ICL to lift out.
		`{"network":{"name":"MBIST_5_100_20"},"spec":{"seed":11}}`,
		`{"network":{}}`,
		`{}`, `[]`, `null`, ``, `"network"`,
		// The value is not a string, or not in an object.
		`{"network":{"icl":null}}`,
		`{"network":{"icl":1}}`,
		`{"network":{"icl":["a"]}}`,
		`{"network":null}`,
		`{"network":"icl"}`,
		`{"network":[{"icl":"a"}]}`,
		// Escapes and bytes outside printable ASCII.
		`{"network":{"icl":"a\u0041b"}}`,
		`{"network":{"icl":"a\u00e9b"}}`,
		`{"network":{"icl":"\ud83d\ude00"}}`,
		"{\"network\":{\"icl\":\"caf\xc3\xa9\"}}",
		"{\"network\":{\"icl\":\"bad\xff\"}}",
		"{\"network\":{\"icl\":\"tab\there\"}}",
		"{\"network\":{\"icl\":\"del\x7f\"}}",
		`{"network":{"icl":"bad \x escape"}}`,
		`{"network":{"icl":"trailing \`,
		`{"network":{"icl":"unterminated`,
		// Keys with escapes, duplicates and case-folded spellings.
		`{"netw\u006frk":{"icl":"a"}}`,
		`{"network":{"ic\u006c":"a"}}`,
		"{\"networ\xe2\x84\xaa\":{\"icl\":\"a\"}}",
		`{"network":{"icl":"a"},"network":{"name":"TreeFlat"}}`,
		`{"network":{"icl":"a","icl":"b"}}`,
		`{"Network":{"icl":"a"}}`,
		`{"network":{"ICL":"a"}}`,
		`{"network":{"icl":"a"},"NETWORK":{"icl":"b"}}`,
		`{"network":{"icl":"a","Icl":"b"}}`,
		// Syntax errors the scan stops at.
		`{"network":{"icl":"a"} "spec":{}}`,
		`{"network":{"icl":"a"},}`,
		`{"network":{"icl":"a"},"spec":{"seed":1`,
	}
	return onePass, fallback
}

// TestDecodeRequestPath checks which seeds of FuzzDecodeRequest take
// the one-pass path; plain `go test` runs the fuzz target on them too.
// A decoder that sent every body to decodeReference would pass the
// fuzz oracle, and this test catches it.
func TestDecodeRequestPath(t *testing.T) {
	onePass, fallback := decodeSeeds(t)
	for i, s := range append(onePass, fallback...) {
		start, end, ok := findICL([]byte(s))
		if ok {
			_, ok = unquoteICL([]byte(s[start+1 : end-1]))
		}
		if want := i < len(onePass); ok != want {
			t.Errorf("seed %q: one-pass path %v, want %v", s, ok, want)
		}
	}
}

// FuzzDecodeRequest: for any body and both request types, the one-pass
// decoder returns the reference decoder's error text, and on success
// its value.
func FuzzDecodeRequest(f *testing.F) {
	onePass, fallback := decodeSeeds(f)
	for _, s := range append(onePass, fallback...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, func(r *AnalyzeRequest) *NetworkRef { return &r.Network })
		checkDecode(t, body, func(r *HardenRequest) *NetworkRef { return &r.Network })
	})
}

var sinkAnalyze AnalyzeRequest

// BenchmarkDecodeBody reads and decodes the 7.7 MB inline-ICL analyze
// body of MBIST_20_20_20 from a request with a Content-Length, along
// the one-pass path and along the reference path it replaced.
func BenchmarkDecodeBody(b *testing.B) {
	net, err := benchnets.Generate("MBIST_20_20_20")
	if err != nil {
		b.Fatal(err)
	}
	var src strings.Builder
	if err := icl.Write(&src, net); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(AnalyzeRequest{Network: NetworkRef{ICL: src.String()}, Spec: SpecRef{Generate: true, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	limit := Config{}.Defaults().MaxBodyBytes
	run := func(b *testing.B, decode func(w http.ResponseWriter, r *http.Request, v *AnalyzeRequest) error) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			var req AnalyzeRequest
			if err := decode(httptest.NewRecorder(), r, &req); err != nil {
				b.Fatal(err)
			}
			sinkAnalyze = req
		}
		if sinkAnalyze.Network.ICL != src.String() {
			b.Fatal("decoded ICL differs from the uploaded text")
		}
	}
	b.Run("onepass", func(b *testing.B) {
		run(b, func(w http.ResponseWriter, r *http.Request, v *AnalyzeRequest) error {
			body, _, err := ReadBody(w, r, limit)
			if err != nil {
				return err
			}
			return decodeRequest(body, v, &v.Network)
		})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(w http.ResponseWriter, r *http.Request, v *AnalyzeRequest) error {
			return decodeJSON(http.MaxBytesReader(w, r.Body, limit), v)
		})
	})
}
