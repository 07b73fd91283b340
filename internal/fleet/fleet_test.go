package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsnrobust/internal/serve"
)

// fakeClock is a hand-cranked clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, 10*time.Second, clk.now)

	if !b.allow() || b.State() != "closed" {
		t.Fatal("new breaker must be closed and allowing")
	}
	b.failure()
	b.failure()
	if b.State() != "closed" {
		t.Fatalf("2 failures below threshold 3: state = %s", b.State())
	}
	b.failure()
	if b.State() != "open" {
		t.Fatalf("3rd failure: state = %s, want open", b.State())
	}
	if b.allow() {
		t.Fatal("open breaker inside cooldown must reject")
	}
	clk.advance(9 * time.Second)
	if b.allow() {
		t.Fatal("cooldown not yet elapsed, must still reject")
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed: the half-open trial must be allowed")
	}
	if b.State() != "half-open" {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if b.allow() {
		t.Fatal("second request during the half-open trial must be rejected")
	}
	// Trial fails: re-open for a fresh cooldown.
	b.failure()
	if b.State() != "open" || b.allow() {
		t.Fatal("failed trial must re-open the breaker")
	}
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("second trial after re-opened cooldown must be allowed")
	}
	// Trial succeeds: fully closed again, failures forgotten.
	b.success()
	if b.State() != "closed" || !b.allow() {
		t.Fatal("successful trial must close the breaker")
	}
	b.failure()
	b.failure()
	if b.State() != "closed" {
		t.Fatal("failure count must have reset on close")
	}
}

// newWorker starts an in-process rsnserve worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator builds a coordinator over the given worker URLs with
// fast, deterministic settings; the probe loop is NOT started — tests
// rely on the dispatch path's own sweep (and ProbeNow) so the request
// sequence any chaos proxy sees is fully scripted.
func newCoordinator(t *testing.T, workers ...string) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := newTestCoordinator(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// newTestCoordinator fills the fast deterministic defaults shared by
// every fleet test on top of the caller's config.
func newTestCoordinator(cfg Config) (*Coordinator, error) {
	cfg.ProbeInterval = time.Hour // effectively manual
	cfg.ProbeTimeout = 2 * time.Second
	cfg.RetryBudget = 3
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 50 * time.Millisecond
	cfg.RetryAfterMax = 50 * time.Millisecond
	cfg.BreakerCooldown = 100 * time.Millisecond
	cfg.Seed = 42
	return New(cfg)
}

const fleetHardenBody = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
	`"options":{"generations":30,"population":24,"seed":7}}`

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestDispatchHappyPath: one healthy worker, plain client — the
// coordinator answers with the worker's exact plain-endpoint bytes.
func TestDispatchHappyPath(t *testing.T) {
	worker := newWorker(t)
	ref := newWorker(t)
	c, ts := newCoordinator(t, worker.URL)

	status, hdr, got := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	refStatus, _, want := postJSON(t, ref.URL+"/v1/harden", fleetHardenBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference status = %d", refStatus)
	}
	if normalizeElapsed(string(got)) != normalizeElapsed(string(want)) {
		t.Errorf("coordinator bytes differ from direct worker bytes\n got %s\nwant %s", got, want)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 1 {
		t.Errorf("fleet.dispatches = %d, want 1", v)
	}
	if v := c.tel.Counter("fleet.retries").Value(); v != 0 {
		t.Errorf("fleet.retries = %d, want 0", v)
	}
}

// TestDispatchValidationRelayed: a worker-side 400 is relayed verbatim,
// not retried.
func TestDispatchValidationRelayed(t *testing.T) {
	worker := newWorker(t)
	c, ts := newCoordinator(t, worker.URL)
	bad := `{"network":{"name":"NoSuchNetwork"},"options":{"generations":5}}`
	status, _, body := postJSON(t, ts.URL+"/v1/harden", bad)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body not relayed: %s", body)
	}
	if v := c.tel.Counter("fleet.retries").Value(); v != 0 {
		t.Errorf("fleet.retries = %d, want 0 — 4xx must not be retried", v)
	}
}

// TestDispatchOverCapBody: a body over the cap answers 413 on both
// dispatching routes, from a worker directly and through the
// coordinator, whether it declares its length or streams it chunked.
func TestDispatchOverCapBody(t *testing.T) {
	const limit = 1 << 10
	ws := httptest.NewServer(serve.New(serve.Config{Workers: 1, MaxBodyBytes: limit}).Handler())
	t.Cleanup(ws.Close)
	c, err := newTestCoordinator(Config{Workers: []string{ws.URL}, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(c.Handler())
	t.Cleanup(cs.Close)
	body := `{"network":{"icl":"` + strings.Repeat("x", 4*limit) + `"}}`
	for _, target := range []struct{ name, url string }{{"worker", ws.URL}, {"coordinator", cs.URL}} {
		for _, rt := range dispatchRoutes {
			for _, chunked := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s%s/chunked=%v", target.name, rt.path, chunked), func(t *testing.T) {
					// Hiding the reader's length makes the client stream the
					// body without a Content-Length.
					var r io.Reader = strings.NewReader(body)
					if chunked {
						r = struct{ io.Reader }{r}
					}
					resp, err := http.Post(target.url+rt.path, "application/json", r)
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), "too large") {
						t.Errorf("status %d, body %s; want 413 naming the cap", resp.StatusCode, b)
					}
				})
			}
		}
	}
	if n := c.tel.Counter("fleet.dispatches").Value(); n != 0 {
		t.Errorf("fleet.dispatches = %d, want 0: an over-cap body reached a worker", n)
	}
}

// stubWorker serves a ready, idle worker with the given handler on
// both dispatch routes.
func stubWorker(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("POST /v1/harden", h)
	mux.HandleFunc("POST /v1/analyze", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// dispatchRoutes are the coordinator's two dispatching endpoints, with
// a body each accepts; both run the one retry loop.
var dispatchRoutes = []struct{ path, body string }{
	{"/v1/harden", fleetHardenBody},
	{"/v1/analyze", `{"network":{"name":"TreeFlat"},"spec":{"seed":3}}`},
}

// TestDispatch429Relayed: when every attempt is met with backpressure,
// the coordinator exhausts its budget and relays 429 with a Retry-After
// of its own, on both dispatching routes.
func TestDispatch429Relayed(t *testing.T) {
	for _, rt := range dispatchRoutes {
		t.Run(strings.TrimPrefix(rt.path, "/v1/"), func(t *testing.T) {
			var attempts atomic.Int64
			busy := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
				attempts.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"queue full"}`)
			})
			c, ts := newCoordinator(t, busy.URL)
			status, hdr, body := postJSON(t, ts.URL+rt.path, rt.body)
			if status != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429: %s", status, body)
			}
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
				t.Errorf("Retry-After = %q, want >= 1", hdr.Get("Retry-After"))
			}
			if n := attempts.Load(); n != 4 {
				t.Errorf("worker saw %d attempts, want 4 (1 + budget 3)", n)
			}
			// Backpressure is not a fault: the breaker must still be closed.
			if st := c.reg.workers[0].br.State(); st != "closed" {
				t.Errorf("breaker = %s after 429s, want closed", st)
			}
			if v := c.tel.Counter("fleet.retries").Value(); v != 3 {
				t.Errorf("fleet.retries = %d, want 3", v)
			}
		})
	}
}

// TestNoHealthyWorkers: a fleet whose only worker is unreachable
// answers 503 after the budget on both dispatching routes, and /readyz
// reports not ready.
func TestNoHealthyWorkers(t *testing.T) {
	for _, rt := range dispatchRoutes {
		t.Run(strings.TrimPrefix(rt.path, "/v1/"), func(t *testing.T) {
			// A listener that is immediately closed: connection refused.
			dead := httptest.NewServer(http.NotFoundHandler())
			deadURL := dead.URL
			dead.Close()

			c, ts := newCoordinator(t, deadURL)
			status, _, body := postJSON(t, ts.URL+rt.path, rt.body)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503: %s", status, body)
			}
			if !strings.Contains(string(body), errNoHealthyWorkers.Error()) {
				t.Errorf("503 body %s does not name the empty fleet", body)
			}
			if v := c.tel.Counter("fleet.dispatches").Value(); v != 0 {
				t.Errorf("fleet.dispatches = %d, want 0", v)
			}
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("/readyz = %d, want 503", resp.StatusCode)
			}
			if v := c.tel.Counter("fleet.probe.failures").Value(); v == 0 {
				t.Error("fleet.probe.failures = 0, want > 0")
			}
		})
	}
}

// TestDispatchOversizeCheckpoint: a checkpoint event longer than the
// stream's line cap is skipped, not treated as a dead worker. The
// regression: the over-long line failed the stream read, so the
// coordinator marked a healthy worker failed, re-dispatched the job
// until the budget ran out, and answered 502.
func TestDispatchOversizeCheckpoint(t *testing.T) {
	const result = `{"objectives":["damage","cost"],"front":[],"cached":false}`
	var attempts atomic.Int64
	stub := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		blob := strings.Repeat("A", 17<<20)
		fmt.Fprintf(w, "event: checkpoint\ndata: {\"gen\":5,\"blob\":%q}\n\n", blob)
		fmt.Fprintf(w, "event: result\ndata: %s\n\n", result)
	})
	c, ts := newCoordinator(t, stub.URL)
	status, _, body := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200: %.200s", status, body)
	}
	if string(body) != result+"\n" {
		t.Errorf("body = %.200s, want the stub's result", body)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("stub saw %d dispatches, want 1", n)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 1 {
		t.Errorf("fleet.dispatches = %d, want 1", v)
	}
	for _, w := range c.reg.snapshot() {
		if !w.Healthy || w.Failures != 0 || w.Breaker != "closed" {
			t.Errorf("worker after an oversize checkpoint: %+v, want healthy, 0 failures, closed", w)
		}
	}
}

// TestFleetStatusEndpoint: /v1/fleet reports per-worker health, breaker
// state and dispatch counts.
func TestFleetStatusEndpoint(t *testing.T) {
	worker := newWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c, ts := newCoordinator(t, worker.URL, deadURL)
	// Three sweeps push the dead worker's breaker past threshold 3.
	c.ProbeNow()
	c.ProbeNow()
	c.ProbeNow()

	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Workers []Worker `json:"workers"`
		Healthy int      `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Healthy != 1 || len(st.Workers) != 2 {
		t.Fatalf("healthy = %d workers = %d, want 1 of 2", st.Healthy, len(st.Workers))
	}
	byURL := map[string]Worker{}
	for _, w := range st.Workers {
		byURL[w.URL] = w
	}
	if w := byURL[worker.URL]; !w.Healthy || w.Breaker != "closed" {
		t.Errorf("live worker reported %+v", w)
	}
	if w := byURL[deadURL]; w.Healthy || w.Breaker != "open" {
		t.Errorf("dead worker reported %+v, want unhealthy+open", w)
	}
	if g := c.tel.Gauge("fleet.breakers.open").Value(); g != 1 {
		t.Errorf("fleet.breakers.open = %v, want 1", g)
	}
	if g := c.tel.Gauge("fleet.workers.healthy").Value(); g != 1 {
		t.Errorf("fleet.workers.healthy = %v, want 1", g)
	}
}

// TestAnalyzeDispatch: the stateless endpoint routes and relays.
func TestAnalyzeDispatch(t *testing.T) {
	worker := newWorker(t)
	_, ts := newCoordinator(t, worker.URL)
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3}}`
	status, _, got := postJSON(t, ts.URL+"/v1/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	refStatus, _, want := postJSON(t, worker.URL+"/v1/analyze", body)
	if refStatus != http.StatusOK || normalizeElapsed(string(got)) != normalizeElapsed(string(want)) {
		t.Errorf("analyze through coordinator differs from direct\n got %s\nwant %s", got, want)
	}
}

// TestTracePropagation: a traceparent sent to the coordinator reaches
// the worker, so both hops join the same trace.
func TestTracePropagation(t *testing.T) {
	var workerTrace atomic.Value // string
	workerTrace.Store("")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		workerTrace.Store(r.Header.Get("traceparent"))
		fmt.Fprint(w, `{}`)
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()

	_, ts := newCoordinator(t, backend.URL)
	const trace = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(`{}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := workerTrace.Load().(string)
	if !strings.HasPrefix(got, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Errorf("worker saw traceparent %q, want same trace ID as the client's", got)
	}
	if strings.Contains(got, "00f067aa0ba902b7") {
		t.Errorf("worker saw the client's span ID %q; the coordinator must be its own hop", got)
	}
}

// normalizeElapsed blanks the wall-clock field so byte comparisons see
// only deterministic content.
func normalizeElapsed(s string) string {
	return elapsedNormRe.ReplaceAllString(s, `"elapsed_ms":0`)
}
