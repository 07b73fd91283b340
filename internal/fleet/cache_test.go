package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rsnrobust/internal/chaos"
	"rsnrobust/internal/serve"
)

// newWorkerPair starts an in-process worker and keeps the serve.Server
// handle, so tests can read the worker's own telemetry (evaluation
// counts prove "served from cache" beyond the cached flag).
func newWorkerPair(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// evalCount sums moea.evaluations across workers: the ground truth for
// "zero re-evaluations".
func evalCount(servers ...*serve.Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.Telemetry().Snapshot().Counters["moea.evaluations"]
	}
	return n
}

// normalizeCached blanks the two fields a cache hit legitimately
// changes — the cached flag and the wall clock — so the rest of the
// response can be compared byte for byte.
func normalizeCached(s string) string {
	return normalizeElapsed(strings.Replace(s, `"cached":true`, `"cached":false`, 1))
}

// TestFleetCacheL1Repeat: a repeat of a completed harden request is
// answered from the coordinator's L1 with zero dispatches and zero new
// evaluations, byte-identical mod cached/elapsed, for both plain and
// streaming clients.
func TestFleetCacheL1Repeat(t *testing.T) {
	srv, wts := newWorkerPair(t)
	c, err := newTestCoordinator(Config{Workers: []string{wts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	status, hdr, first := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, first)
	}
	key := hdr.Get(serve.CacheKeyHeader)
	if len(key) != 16 {
		t.Fatalf("%s = %q, want a 16-hex-digit key", serve.CacheKeyHeader, key)
	}
	if v := c.tel.Counter("fleet.cache.misses").Value(); v != 1 {
		t.Errorf("fleet.cache.misses = %d after first request, want 1", v)
	}
	evals := evalCount(srv)
	if evals == 0 {
		t.Fatal("first request did no evaluations — test premise broken")
	}

	status, hdr2, second := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", status, second)
	}
	if hdr2.Get(serve.CacheKeyHeader) != key {
		t.Errorf("repeat cache key %q != first %q", hdr2.Get(serve.CacheKeyHeader), key)
	}
	if v := c.tel.Counter("fleet.cache.hits").Value(); v != 1 {
		t.Errorf("fleet.cache.hits = %d, want 1", v)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 1 {
		t.Errorf("fleet.dispatches = %d after L1 hit, want still 1", v)
	}
	if got := evalCount(srv); got != evals {
		t.Errorf("repeat caused %d new evaluations, want 0", got-evals)
	}
	if !strings.Contains(string(second), `"cached":true`) {
		t.Errorf("L1 response not marked cached: %s", second)
	}
	if normalizeCached(string(second)) != normalizeCached(string(first)) {
		t.Errorf("L1 bytes differ from computed response\n got %s\nwant %s", second, first)
	}

	// A streaming client's repeat: a single result event straight from
	// the L1 — no generation replay, no dispatch.
	resp, err := http.Post(ts.URL+"/v1/harden?stream=1", "application/json",
		strings.NewReader(fleetHardenBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("streamed repeat Content-Type = %q", ct)
	}
	var result []byte
	generations := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch name {
			case "generation":
				generations++
			case "result":
				result = []byte(line[len("data: "):])
			}
		}
	}
	if generations != 0 {
		t.Errorf("streamed L1 hit replayed %d generation events, want 0", generations)
	}
	if result == nil {
		t.Fatal("streamed L1 hit ended without a result event")
	}
	if normalizeCached(string(result)+"\n") != normalizeCached(string(first)) {
		t.Errorf("streamed L1 result differs from plain\n got %s\nwant %s", result, first)
	}
	if v := c.tel.Counter("fleet.cache.hits").Value(); v != 2 {
		t.Errorf("fleet.cache.hits = %d after streamed repeat, want 2", v)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 1 {
		t.Errorf("fleet.dispatches = %d, want still 1", v)
	}
	if got := evalCount(srv); got != evals {
		t.Errorf("streamed repeat caused %d new evaluations, want 0", got-evals)
	}
}

// TestFleetCacheNoCacheOptOut: options.no_cache bypasses the L1 on both
// read and write, so every request is a fresh dispatch.
func TestFleetCacheNoCacheOptOut(t *testing.T) {
	_, wts := newWorkerPair(t)
	c, err := newTestCoordinator(Config{Workers: []string{wts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":30,"population":24,"seed":7,"no_cache":true}}`
	for i := 0; i < 2; i++ {
		status, hdr, got := postJSON(t, ts.URL+"/v1/harden", body)
		if status != http.StatusOK {
			t.Fatalf("request %d status = %d: %s", i, status, got)
		}
		if k := hdr.Get(serve.CacheKeyHeader); k != "" {
			t.Errorf("no_cache request %d got cache key %q, want none", i, k)
		}
		if strings.Contains(string(got), `"cached":true`) {
			t.Errorf("no_cache request %d answered from a cache", i)
		}
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 2 {
		t.Errorf("fleet.dispatches = %d, want 2 — no_cache must always dispatch", v)
	}
	if v := c.tel.Counter("fleet.cache.hits").Value() + c.tel.Counter("fleet.cache.misses").Value(); v != 0 {
		t.Errorf("no_cache touched the L1 (%d hits+misses), want 0", v)
	}
	if n := c.l1.Len(); n != 0 {
		t.Errorf("no_cache filled the L1 with %d entries", n)
	}
}

// TestFleetCacheL1RepeatAfterMigration is the acceptance drill: a job
// whose first worker is SIGKILLed mid-run migrates, completes, and a
// repeat of the same request is served with zero re-evaluations.
// Workers never cache resumed runs, so the coordinator's L1 is the only
// cache that can hold a migrated job's result — this test proves it
// does.
func TestFleetCacheL1RepeatAfterMigration(t *testing.T) {
	srv1, wts1 := newWorkerPair(t)
	srv2, wts2 := newWorkerPair(t)
	// Request 0 is the first sweep's probe; request 1 is the dispatch,
	// killed after its first streamed checkpoint.
	p, err := chaos.NewProxy(wts1.URL, []chaos.Fault{
		{},
		{Kind: chaos.FaultKillAfterEvents, Event: "checkpoint", Events: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := newTestCoordinator(Config{Workers: []string{p.URL(), wts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	status, _, first := postJSON(t, ts.URL+"/v1/harden", migrateBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, first)
	}
	if v := c.tel.Counter("fleet.migrations").Value(); v < 1 {
		t.Fatalf("fleet.migrations = %d, want >= 1 — the drill needs a real migration", v)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 2 {
		t.Errorf("fleet.dispatches = %d, want 2", v)
	}
	evals := evalCount(srv1, srv2)

	status, _, second := postJSON(t, ts.URL+"/v1/harden", migrateBody)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", status, second)
	}
	if v := c.tel.Counter("fleet.cache.hits").Value(); v != 1 {
		t.Errorf("fleet.cache.hits = %d, want 1", v)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 2 {
		t.Errorf("fleet.dispatches = %d after repeat, want still 2", v)
	}
	if got := evalCount(srv1, srv2); got != evals {
		t.Errorf("repeat after migration caused %d new evaluations, want 0", got-evals)
	}
	if !strings.Contains(string(second), `"cached":true`) {
		t.Errorf("post-migration repeat not marked cached: %s", second)
	}
	if normalizeCached(string(second)) != normalizeCached(string(first)) {
		t.Errorf("post-migration cached bytes differ\n got %s\nwant %s", second, first)
	}
}

// TestParseRetryAfter: the regression for the Retry-After bug — the old
// parser only understood delta-seconds (strconv.Atoi), so RFC 9110's
// HTTP-date form was silently dropped and the worker's backpressure
// hint lost. Both forms must parse; garbage and non-positive deltas
// must report !ok so callers keep their default.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"-3", 0, false},
		{"7", 7 * time.Second, true},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		{now.Add(45 * time.Second).Format(time.RFC850), 45 * time.Second, true},
		// A date at or before now still signals backpressure: one second.
		{now.Format(http.TimeFormat), time.Second, true},
		{now.Add(-10 * time.Second).Format(http.TimeFormat), time.Second, true},
		{"soon", 0, false},
		{"Wed, 99 Foo 2026 12:00:00 GMT", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestDispatch429RetryAfterDate: end to end, a worker answering 429
// with an HTTP-date Retry-After is treated exactly like the
// delta-seconds form — retried on the hint (capped), relayed as 429
// with a delta-seconds Retry-After after the budget.
func TestDispatch429RetryAfterDate(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	attempts := 0
	mux.HandleFunc("POST /v1/harden", func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	})
	busy := httptest.NewServer(mux)
	defer busy.Close()

	c, err := newTestCoordinator(Config{Workers: []string{busy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	status, hdr, body := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", status, body)
	}
	if attempts != 4 {
		t.Errorf("worker saw %d attempts, want 4 (1 + budget 3)", attempts)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("coordinator's own 429 lost the Retry-After header")
	}
	var meta struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &meta); err != nil || !strings.Contains(meta.Error, "busy") {
		t.Errorf("unexpected 429 body: %s", body)
	}
}
