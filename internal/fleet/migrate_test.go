package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"rsnrobust/internal/chaos"
)

var elapsedNormRe = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// migrateBody deliberately sets no checkpoint_every: the coordinator
// must inject its own cadence, or migration has nothing to resume from.
const migrateBody = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
	`"options":{"generations":40,"population":30,"seed":7}}`

// TestDispatchRetriesTransient: a 500 then a connection reset from the
// worker's network path are absorbed by the retry loop; the client sees
// one clean 200.
func TestDispatchRetriesTransient(t *testing.T) {
	worker := newWorker(t)
	// The proxy request sequence is fully scripted: the dispatch path's
	// first pick finds no healthy worker and sweeps once — request 0,
	// its one readyz probe — then dispatches: 1 is the injected 500.
	// markFailure eagerly flips the worker unhealthy, so each retry
	// re-probes before it can dispatch again: 2 is the second sweep, 3
	// is the reset dispatch, 4 the third sweep, 5 the clean forward.
	p, err := chaos.NewProxy(worker.URL, []chaos.Fault{
		{},
		{Kind: chaos.FaultError500},
		{},
		{Kind: chaos.FaultReset},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, ts := newCoordinator(t, p.URL())
	status, _, got := postJSON(t, ts.URL+"/v1/harden", fleetHardenBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	ref := newWorker(t)
	refStatus, _, want := postJSON(t, ref.URL+"/v1/harden", fleetHardenBody)
	if refStatus != http.StatusOK {
		t.Fatal("reference run failed")
	}
	if normalizeElapsed(string(got)) != normalizeElapsed(string(want)) {
		t.Errorf("result after retries differs from clean run\n got %s\nwant %s", got, want)
	}
	if v := c.tel.Counter("fleet.retries").Value(); v != 2 {
		t.Errorf("fleet.retries = %d, want 2", v)
	}
	if v := c.tel.Counter("fleet.migrations").Value(); v != 0 {
		t.Errorf("fleet.migrations = %d, want 0 — no checkpoint was streamed before the failures", v)
	}
}

// TestMigrationOnMidStreamKill is the fleet's core drill: worker 1 dies
// mid-generation after streaming its first checkpoint, and the job
// migrates to worker 2, resuming from that checkpoint. The client's
// response must be byte-identical (mod wall clock) to an uninterrupted
// run — same front, same picks, same evaluation accounting, nothing
// lost and nothing recomputed into the totals.
func TestMigrationOnMidStreamKill(t *testing.T) {
	worker1 := newWorker(t)
	worker2 := newWorker(t)
	// Worker 1 sits behind the chaos proxy: request 0 is the sweep's
	// probe, request 1 is the dispatch, killed right after the first
	// streamed checkpoint event crosses the wire.
	p, err := chaos.NewProxy(worker1.URL, []chaos.Fault{
		{},
		{Kind: chaos.FaultKillAfterEvents, Event: "checkpoint", Events: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, ts := newCoordinator(t, p.URL(), worker2.URL)
	status, _, got := postJSON(t, ts.URL+"/v1/harden", migrateBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}

	// The uninterrupted reference on a fresh, never-touched worker.
	ref := newWorker(t)
	refStatus, _, want := postJSON(t, ref.URL+"/v1/harden", migrateBody)
	if refStatus != http.StatusOK {
		t.Fatal("reference run failed")
	}
	if normalizeElapsed(string(got)) != normalizeElapsed(string(want)) {
		t.Errorf("migrated result differs from uninterrupted run\n got %s\nwant %s", got, want)
	}

	if v := c.tel.Counter("fleet.migrations").Value(); v < 1 {
		t.Errorf("fleet.migrations = %d, want >= 1", v)
	}
	if v := c.tel.Counter("fleet.dispatches").Value(); v != 2 {
		t.Errorf("fleet.dispatches = %d, want 2", v)
	}
	if k := p.Killed(); k != 1 {
		t.Errorf("proxy killed %d connections, want 1", k)
	}
	// The registry must have booked the failure against worker 1.
	snap := c.reg.snapshot()
	for _, w := range snap {
		if w.URL == p.URL() && w.Failures != 1 {
			t.Errorf("proxied worker failures = %d, want 1", w.Failures)
		}
		if w.URL == worker2.URL && w.Failures != 0 {
			t.Errorf("healthy worker failures = %d, want 0", w.Failures)
		}
	}
}

// TestMigrationStreamingClient runs the same kill drill with an SSE
// client on the coordinator: the stream must survive the migration with
// strictly increasing generation numbers (no replays, no gaps backward)
// and end in a result event identical to the plain response.
func TestMigrationStreamingClient(t *testing.T) {
	worker1 := newWorker(t)
	worker2 := newWorker(t)
	p, err := chaos.NewProxy(worker1.URL, []chaos.Fault{
		{},
		{Kind: chaos.FaultKillAfterEvents, Event: "checkpoint", Events: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, ts := newCoordinator(t, p.URL(), worker2.URL)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/harden?stream=1",
		strings.NewReader(migrateBody))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	lastGen := -1
	var result []byte
	var sawError bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch name {
			case "generation":
				var g struct {
					Gen int `json:"gen"`
				}
				if err := json.Unmarshal([]byte(data), &g); err != nil {
					t.Fatalf("generation event not JSON: %v", err)
				}
				if g.Gen <= lastGen {
					t.Errorf("generation %d relayed after %d — replay across migration", g.Gen, lastGen)
				}
				lastGen = g.Gen
			case "result":
				result = []byte(data)
			case "error":
				sawError = true
			}
		}
	}
	if sc.Err() != nil {
		t.Fatalf("client stream broke: %v", sc.Err())
	}
	if sawError {
		t.Fatal("error event on a stream that should have migrated cleanly")
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
	}
	ref := newWorker(t)
	refStatus, _, want := postJSON(t, ref.URL+"/v1/harden", migrateBody)
	if refStatus != http.StatusOK {
		t.Fatal("reference run failed")
	}
	if normalizeElapsed(string(result)+"\n") != normalizeElapsed(string(want)) {
		t.Errorf("streamed result differs from uninterrupted plain run\n got %s\nwant %s", result, want)
	}
	if v := c.tel.Counter("fleet.migrations").Value(); v < 1 {
		t.Errorf("fleet.migrations = %d, want >= 1", v)
	}
}

// TestMigrationAccounting pins the "zero lost or duplicated work"
// claim to the reported numbers: the migrated run's evaluation count
// equals the uninterrupted run's exactly (checkpointed totals travel
// with the blob; the resumed worker adds only the post-checkpoint
// generations).
func TestMigrationAccounting(t *testing.T) {
	worker1 := newWorker(t)
	worker2 := newWorker(t)
	p, err := chaos.NewProxy(worker1.URL, []chaos.Fault{
		{},
		{Kind: chaos.FaultKillAfterEvents, Event: "checkpoint", Events: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, ts := newCoordinator(t, p.URL(), worker2.URL)
	status, _, got := postJSON(t, ts.URL+"/v1/harden", migrateBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, got)
	}
	ref := newWorker(t)
	_, _, want := postJSON(t, ref.URL+"/v1/harden", migrateBody)

	type counts struct {
		Evaluations int64 `json:"evaluations"`
		Generations int   `json:"generations"`
		Interrupted bool  `json:"interrupted"`
	}
	var a, b counts
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	if a.Interrupted {
		t.Error("migrated run reported interrupted")
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("migrated evaluations = %d, uninterrupted = %d — work was lost or double-counted",
			a.Evaluations, b.Evaluations)
	}
	if a.Generations != b.Generations {
		t.Errorf("migrated generations = %d, uninterrupted = %d", a.Generations, b.Generations)
	}
}

// TestHalfOpenRecovery: after a worker's breaker opens, a recovered
// worker is probed half-open and traffic returns.
func TestHalfOpenRecovery(t *testing.T) {
	worker := newWorker(t)
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		// Reverse-proxy by hand to the real worker.
		req, _ := http.NewRequest(r.Method, worker.URL+r.URL.String(), r.Body)
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		bufio.NewReader(resp.Body).WriteTo(w)
	}))
	defer flaky.Close()

	c, _ := newCoordinator(t, flaky.URL)
	down.Store(true)
	c.ProbeNow()
	c.ProbeNow()
	c.ProbeNow() // threshold 3: breaker opens
	if st := c.reg.workers[0].br.State(); st != "open" {
		t.Fatalf("breaker = %s after 3 failed probes, want open", st)
	}
	down.Store(false)
	// Inside the cooldown probes succeed and close the breaker again
	// (probe successes feed it directly).
	c.ProbeNow()
	if st := c.reg.workers[0].br.State(); st != "closed" {
		t.Fatalf("breaker = %s after recovery probe, want closed", st)
	}
	if !c.reg.workers[0].healthy.Load() {
		t.Fatal("worker not marked healthy after recovery")
	}
}
