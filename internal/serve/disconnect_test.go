package serve

import (
	"bufio"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsnrobust/internal/chaos"
	"rsnrobust/internal/telemetry"
)

// TestStreamClientDisconnect checks the server side of a client hanging
// up mid-stream: the running job must be cancelled promptly (not run to
// its 100k-generation budget), the handler goroutine must not leak, and
// the job must show its live progress while it runs and land among the
// recent /v1/jobs as interrupted with its partial progress recorded.
func TestStreamClientDisconnect(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	// Stabilize the goroutine baseline with one complete request.
	warm, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	base := runtime.NumGoroutine()

	// A job far too big to finish on its own: only cancellation can end
	// it inside the test's lifetime.
	body := `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":100000,"population":1000,"seed":7,"no_cache":true,"stream_every":1}}`
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/harden?stream=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// Read until the run has demonstrably started streaming progress,
	// then hang up mid-stream.
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() && events < 2 {
		if strings.HasPrefix(sc.Text(), "event: generation") {
			events++
		}
	}
	if events < 2 {
		t.Fatalf("stream ended after %d generation events: %v", events, sc.Err())
	}
	// The running job shows its live progress: at least the two
	// generations whose events arrived.
	if active := srv.flight.Jobs().Active; len(active) != 1 || active[0].State != "running" || active[0].Generations < 2 {
		t.Errorf("running jobs = %+v, want one running harden with >= 2 generations", active)
	}
	resp.Body.Close() // the disconnect

	// The job must finish promptly: the request context cancels, the
	// run stops at the next generation boundary.
	deadline := time.Now().Add(10 * time.Second)
	var done *telemetry.FlightJob
	for time.Now().Before(deadline) {
		snap := srv.flight.Jobs()
		for i := range snap.Recent {
			if snap.Recent[i].Route == "harden" {
				done = &snap.Recent[i]
				break
			}
		}
		if done != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done == nil {
		t.Fatal("job still running 10s after client disconnect — cancellation did not propagate")
	}
	if done.Status != "interrupted" {
		t.Errorf("job status = %q, want interrupted", done.Status)
	}
	if done.Generations < 2 {
		t.Errorf("job recorded %d generations, want >= 2 (partial progress must be visible)", done.Generations)
	}

	// No goroutine may outlive the disconnected request.
	tr.CloseIdleConnections()
	if err := chaos.WaitGoroutines(base, 5*time.Second); err != nil {
		t.Errorf("goroutine leak after client disconnect: %v", err)
	}
}
