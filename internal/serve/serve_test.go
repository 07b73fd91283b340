package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rsnrobust/internal/telemetry"
)

// inlineICL is a small annotated network for the inline-source path:
// two SIB-gated segments, one with a critical instrument.
const inlineICL = `network inline
  sib s1 {
    segment a 4 instrument ia obs 5 set 2 critobs
  }
  sib s2 {
    segment b 3 instrument ib obs 2 set 1
  }
end`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and returns the status, headers and decoded body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func decode[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, b, err)
	}
	return v
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAnalyzeNamedBenchmark(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, b := post(t, ts, "/v1/analyze",
		`{"network":{"name":"TreeFlat"},"spec":{"seed":1},"top_damages":5}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	resp := decode[AnalyzeResponse](t, b)
	if resp.Network != "TreeFlat" || resp.Segments != 24 {
		t.Errorf("network/segments = %q/%d, want TreeFlat/24", resp.Network, resp.Segments)
	}
	if resp.Primitives == 0 || resp.TotalDamage <= 0 || resp.MaxCost <= 0 {
		t.Errorf("degenerate analysis: %+v", resp)
	}
	if len(resp.TopDamages) != 5 {
		t.Fatalf("top_damages len = %d, want 5", len(resp.TopDamages))
	}
	for i := 1; i < len(resp.TopDamages); i++ {
		if resp.TopDamages[i].Damage > resp.TopDamages[i-1].Damage {
			t.Errorf("top_damages not sorted at %d: %+v", i, resp.TopDamages)
		}
	}
}

func TestAnalyzeInlineICL(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := json.Marshal(AnalyzeRequest{
		Network: NetworkRef{ICL: inlineICL},
		Scope:   "control",
	})
	status, _, b := post(t, ts, "/v1/analyze", string(req))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	resp := decode[AnalyzeResponse](t, b)
	if resp.Network != "inline" || resp.Scope != "control" {
		t.Errorf("network/scope = %q/%q, want inline/control", resp.Network, resp.Scope)
	}
	if resp.Instruments != 2 {
		t.Errorf("instruments = %d, want 2", resp.Instruments)
	}
}

func TestHardenDeterministicFront(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":7},
	  "options":{"generations":40,"seed":7,"no_cache":true}}`
	status, _, b1 := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b1)
	}
	r1 := decode[HardenResponse](t, b1)
	if len(r1.Front) == 0 || r1.MaxCost <= 0 || r1.MaxDamage <= 0 {
		t.Fatalf("degenerate synthesis: %+v", r1)
	}
	if r1.Interrupted || r1.Cached {
		t.Errorf("unexpected interrupted/cached flags: %+v", r1)
	}
	// The front is a strict staircase: cost falls as damage rises.
	for i := 1; i < len(r1.Front); i++ {
		if r1.Front[i].Cost >= r1.Front[i-1].Cost || r1.Front[i].Damage <= r1.Front[i-1].Damage {
			t.Errorf("front not a staircase at %d: %+v", i, r1.Front)
		}
	}
	// no_cache means nothing was stored, so the rerun recomputes — and
	// the same seed must reproduce the same front bit for bit.
	status, _, b2 := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("rerun status = %d, body %s", status, b2)
	}
	r2 := decode[HardenResponse](t, b2)
	if r2.Cached {
		t.Error("no_cache request served from cache")
	}
	if fmt.Sprint(r1.Front) != fmt.Sprint(r2.Front) {
		t.Errorf("same seed produced different fronts:\n%v\n%v", r1.Front, r2.Front)
	}
}

func TestHardenCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},
	  "options":{"generations":30,"seed":3}}`
	status, _, b := post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	first := decode[HardenResponse](t, b)
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	status, _, b = post(t, ts, "/v1/harden", body)
	if status != http.StatusOK {
		t.Fatalf("second status = %d, body %s", status, b)
	}
	second := decode[HardenResponse](t, b)
	if !second.Cached {
		t.Error("identical request not served from cache")
	}
	if fmt.Sprint(first.Front) != fmt.Sprint(second.Front) {
		t.Errorf("cached front differs:\n%v\n%v", first.Front, second.Front)
	}
	// A request differing only in deadline_ms maps to the same key.
	status, _, b = post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeFlat"},"spec":{"seed":3},
		  "options":{"generations":30,"seed":3,"deadline_ms":60000}}`)
	if status != http.StatusOK {
		t.Fatalf("deadline variant status = %d, body %s", status, b)
	}
	if !decode[HardenResponse](t, b).Cached {
		t.Error("deadline-only variant missed the cache")
	}
	// The hit is visible on /metrics.
	snap := s.Telemetry().Snapshot()
	if snap.Counters["serve.cache.hits"] < 2 {
		t.Errorf("cache.hits = %d, want >= 2", snap.Counters["serve.cache.hits"])
	}
	status, metrics := get(t, ts, "/metrics")
	if status != http.StatusOK || !strings.Contains(string(metrics), "rsn_serve_cache_hits") {
		t.Errorf("metrics exposition missing cache counter (status %d):\n%s", status, metrics)
	}
}

func TestHardenDeadlineReturnsPartialFront(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, _, b := post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeBalanced"},"spec":{"seed":1},
		  "options":{"generations":100000,"seed":1,"deadline_ms":150}}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	resp := decode[HardenResponse](t, b)
	if !resp.Interrupted {
		t.Fatalf("run of 100000 generations finished within 150ms? %+v", resp)
	}
	if len(resp.Front) == 0 {
		t.Error("interrupted run returned no partial front")
	}
	if resp.Generations >= 100000 {
		t.Errorf("generations = %d, expected early stop", resp.Generations)
	}
	// Interrupted results must never be cached.
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after an interrupted-only run, want 0", n)
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	long := `{"network":{"name":"TreeBalanced"},"spec":{"seed":2},
	  "options":{"generations":100000,"seed":2,"no_cache":true}}`
	done := make(chan HardenResponse, 1)
	go func() {
		status, _, b := post(t, ts, "/v1/harden", long)
		if status != http.StatusOK {
			t.Errorf("long request status = %d, body %s", status, b)
		}
		done <- decode[HardenResponse](t, b)
	}()
	waitFor(t, "worker busy", func() bool {
		return s.Telemetry().Snapshot().Gauges["serve.queue.running"] == 1
	})
	// /readyz reports the queue a fleet coordinator routes by.
	if status, b := get(t, ts, "/readyz"); status != http.StatusOK || decode[Readiness](t, b) != (Readiness{Status: "ready", Running: 1}) {
		t.Errorf("readyz with one job running = %d %s", status, b)
	}

	status, hdr, b := post(t, ts, "/v1/harden", long)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429; body %s", status, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if eresp := decode[errorResponse](t, b); !strings.Contains(eresp.Error, "queue full") {
		t.Errorf("429 body = %q", eresp.Error)
	}
	if s.Telemetry().Snapshot().Counters["serve.queue.rejected"] == 0 {
		t.Error("rejected counter not incremented")
	}

	// Aborting in-flight work releases the long request with a valid
	// partial result.
	s.AbortInFlight()
	select {
	case resp := <-done:
		if !resp.Interrupted {
			t.Errorf("aborted run not marked interrupted: %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long request did not return after AbortInFlight")
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _ := get(t, ts, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before drain = %d", status)
	}
	s.StartDrain()
	if status, _ := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", status)
	}
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", status)
	}
	status, _, b := post(t, ts, "/v1/harden",
		`{"network":{"name":"TreeFlat"},"options":{"generations":5}}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("harden during drain = %d, want 503; body %s", status, b)
	}
	status, _, _ = post(t, ts, "/v1/analyze", `{"network":{"name":"TreeFlat"}}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("analyze during drain = %d, want 503", status)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var status int
			var b []byte
			if i%3 == 0 {
				status, _, b = post(t, ts, "/v1/analyze",
					fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":%d}}`, i))
			} else {
				status, _, b = post(t, ts, "/v1/harden",
					fmt.Sprintf(`{"network":{"name":"TreeFlat"},"spec":{"seed":%d},
					  "options":{"generations":15,"seed":%d}}`, i, i))
			}
			if status != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d, body %s", i, status, b)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.Telemetry().Snapshot()
	if snap.Counters["serve.http.requests"] < n {
		t.Errorf("requests counter = %d, want >= %d", snap.Counters["serve.http.requests"], n)
	}
	if snap.Counters["serve.http.status.2xx"] < n {
		t.Errorf("2xx counter = %d, want >= %d", snap.Counters["serve.http.status.2xx"], n)
	}
	if snap.Gauges["serve.queue.running"] != 0 || snap.Gauges["serve.http.inflight"] != 0 {
		t.Errorf("non-zero in-flight after drain-down: %+v", snap.Gauges)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body, wantSub string
	}{
		{"no network", "/v1/harden", `{}`, "exactly one"},
		{"both sources", "/v1/harden",
			`{"network":{"name":"TreeFlat","icl":"network x\nsegment a 1\nend"}}`, "mutually exclusive"},
		{"unknown benchmark", "/v1/harden", `{"network":{"name":"NoSuchNet"}}`, "unknown benchmark"},
		{"bad algorithm", "/v1/harden",
			`{"network":{"name":"TreeFlat"},"options":{"algorithm":"sa"}}`, "algorithm"},
		{"bad scope", "/v1/analyze", `{"network":{"name":"TreeFlat"},"scope":"none"}`, "scope"},
		{"population 1", "/v1/harden",
			`{"network":{"name":"TreeFlat"},"options":{"population":1}}`, "population"},
		{"negative generations", "/v1/harden",
			`{"network":{"name":"TreeFlat"},"options":{"generations":-1}}`, "generations"},
		{"unknown field", "/v1/harden", `{"network":{"name":"TreeFlat"},"bogus":1}`, "body"},
		{"islands out of range", "/v1/harden",
			`{"network":{"name":"TreeFlat"},"options":{"islands":17}}`, "islands"},
		{"islands vs population", "/v1/harden",
			`{"network":{"name":"TreeFlat"},"options":{"islands":4,"population":6}}`, "islands"},
		{"malformed ICL", "/v1/analyze", `{"network":{"icl":"segment a 4"}}`, "network"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, b := post(t, ts, tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", status, b)
			}
			if eresp := decode[errorResponse](t, b); !strings.Contains(eresp.Error, tc.wantSub) {
				t.Errorf("error %q does not mention %q", eresp.Error, tc.wantSub)
			}
		})
	}
}

// TestHardenIslandsKnob exercises the islands option end to end: the
// run reports its island count, the knob is part of the result cache
// key (an islands run cannot be served a single-population result),
// and islands:1 collapses to the single-population cache entry.
func TestHardenIslandsKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	single := `{"network":{"name":"TreeFlat"},"spec":{"seed":5},
	  "options":{"generations":30,"seed":5}}`
	status, _, b := post(t, ts, "/v1/harden", single)
	if status != http.StatusOK {
		t.Fatalf("single status = %d, body %s", status, b)
	}
	r0 := decode[HardenResponse](t, b)
	if r0.Islands != 0 {
		t.Errorf("single-population response carries islands = %d", r0.Islands)
	}

	islands := `{"network":{"name":"TreeFlat"},"spec":{"seed":5},
	  "options":{"generations":30,"seed":5,"islands":2}}`
	status, _, b = post(t, ts, "/v1/harden", islands)
	if status != http.StatusOK {
		t.Fatalf("islands status = %d, body %s", status, b)
	}
	r2 := decode[HardenResponse](t, b)
	if r2.Cached {
		t.Error("islands run served the single-population cache entry")
	}
	if r2.Islands != 2 {
		t.Errorf("islands response reports %d islands, want 2", r2.Islands)
	}
	if len(r2.Front) == 0 {
		t.Fatal("islands run returned an empty front")
	}

	// Same request again: a cache hit, preserving the island count.
	status, _, b = post(t, ts, "/v1/harden", islands)
	if status != http.StatusOK {
		t.Fatalf("islands rerun status = %d, body %s", status, b)
	}
	if r := decode[HardenResponse](t, b); !r.Cached || r.Islands != 2 {
		t.Errorf("islands rerun cached=%v islands=%d, want cached with 2 islands", r.Cached, r.Islands)
	}

	// islands:1 is the single-population run and shares its cache entry.
	one := `{"network":{"name":"TreeFlat"},"spec":{"seed":5},
	  "options":{"generations":30,"seed":5,"islands":1}}`
	status, _, b = post(t, ts, "/v1/harden", one)
	if status != http.StatusOK {
		t.Fatalf("islands=1 status = %d, body %s", status, b)
	}
	if r := decode[HardenResponse](t, b); !r.Cached || r.Islands != 0 {
		t.Errorf("islands=1 cached=%v islands=%d, want the single-population cache entry", r.Cached, r.Islands)
	}
}

func TestRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _ := get(t, ts, "/v1/harden"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/harden = %d, want 405", status)
	}
	if status, _ := get(t, ts, "/nope"); status != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", status)
	}
}

func TestMetricsJSONSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/analyze", `{"network":{"name":"TreeFlat"}}`)
	status, b := get(t, ts, "/metrics?format=json")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	snap := decode[telemetry.Snapshot](t, b)
	if snap.Counters["serve.http.requests"] == 0 {
		t.Errorf("JSON snapshot missing request counter: %+v", snap.Counters)
	}
}

func TestInstrumentPanicBackstop(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.edge.Handle("GET /boom", "boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	status, b := get(t, ts, "/boom")
	if status != http.StatusInternalServerError {
		t.Errorf("panicking handler status = %d, want 500; body %s", status, b)
	}
	if s.Telemetry().Snapshot().Counters["serve.http.panics"] != 1 {
		t.Error("panic counter not incremented")
	}
}
