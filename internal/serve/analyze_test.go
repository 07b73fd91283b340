package serve

import (
	"encoding/json"
	"testing"
)

var sinkAnalyzeResp *AnalyzeResponse

// BenchmarkAnalyzeNamed times the body of one by-name analyze job on
// MBIST_5_100_20 (load, validate, spec, SP tree and criticality), the
// request class that sets serve_mix's median latency. Run it with
//
//	go test -run '^$' -bench AnalyzeNamed -benchmem -cpu 1 ./internal/serve
func BenchmarkAnalyzeNamed(b *testing.B) {
	s := New(Config{})
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(`{"network":{"name":"MBIST_5_100_20"}}`), &req); err != nil {
		b.Fatal(err)
	}
	if err := req.validate(s.cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := s.analyze(&req, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkAnalyzeResp = resp
	}
}
