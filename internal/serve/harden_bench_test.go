package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/icl"
)

// BenchmarkHardenServed times one served harden miss through the
// handler: a 150-generation run on TreeFlat_Ex uploaded as inline ICL
// with no_cache, answered as plain JSON and as an event stream
// (?stream=1, default throttle) — the small harden that dominates
// fleet_mix's non-repeat requests. Run it with
//
//	go test -run '^$' -bench HardenServed -benchmem -cpu 1 ./internal/serve
func BenchmarkHardenServed(b *testing.B) {
	e, ok := benchnets.Lookup("TreeFlat_Ex")
	if !ok {
		b.Fatal("no Table I row TreeFlat_Ex")
	}
	net, err := benchnets.GenerateEntry(e)
	if err != nil {
		b.Fatal(err)
	}
	var src bytes.Buffer
	if err := icl.Write(&src, net); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(HardenRequest{
		Network: NetworkRef{ICL: src.String()},
		Spec:    SpecRef{Generate: true, Seed: 3},
		Options: HardenOptions{Generations: 150, Seed: 3, NoCache: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	h := s.Handler()
	for _, path := range []string{"/v1/harden", "/v1/harden?stream=1"} {
		name := "plain"
		if path != "/v1/harden" {
			name = "stream"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
