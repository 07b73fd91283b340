package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"rsnrobust/internal/serve"
)

var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

func normalizeElapsed(b []byte) string {
	return elapsedRe.ReplaceAllString(string(b), `"elapsed_ms":0`)
}

// metricsSnap fetches a server's JSON metrics snapshot.
func metricsSnap(t *testing.T, base string) (map[string]int64, map[string]float64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters, snap.Gauges
}

// TestCoordinatorKillWorkerMigration is the fleet's end-to-end chaos
// drill through real processes: two rsnserve workers and one
// coordinator run as separate OS processes, a job is dispatched, and
// the worker running it is SIGKILLed after it has streamed at least
// one checkpoint. The job must complete on the surviving worker with a
// response byte-identical (modulo wall clock) to an uninterrupted run,
// the coordinator must account exactly one migration — zero lost work,
// zero duplicated work — and a repeat of the request must be served
// from the coordinator's L1 cache with zero re-evaluations.
func TestCoordinatorKillWorkerMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	w1cmd, w1base, _ := startServer(t)
	w2cmd, w2base, _ := startServer(t)
	_, coordBase, coordErr := startServer(t,
		"-coordinator", w1base+","+w2base,
		"-probe-interval", "100ms",
		"-checkpoint-every", "1")

	// Wait for the coordinator's first probe sweep to see the workers.
	readyDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coordBase + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("coordinator never became ready\nstderr: %s", coordErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Large enough that the SIGKILL lands mid-run with room to spare:
	// the kill fires as soon as worker 1 reports a streamed checkpoint,
	// within the first few of 600 generations.
	const body = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":600,"population":80,"seed":7}}`

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(coordBase+"/v1/harden", "application/json", strings.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b, err: err}
	}()

	// Least-loaded routing sends the job to either worker, depending on
	// the load hints the live probe loop last stored, so poll both and
	// SIGKILL whichever is streaming checkpoints the moment the
	// coordinator has one to resume from.
	holders := []struct {
		cmd  *exec.Cmd
		base string
	}{{w1cmd, w1base}, {w2cmd, w2base}}
	killDeadline := time.Now().Add(30 * time.Second)
	killed := false
	for !killed {
		for _, h := range holders {
			counters, _ := metricsSnap(t, h.base)
			if counters["serve.checkpoints.streamed"] >= 1 {
				if err := h.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
					t.Fatal(err)
				}
				h.cmd.Wait()
				killed = true
				break
			}
		}
		if !killed {
			if time.Now().After(killDeadline) {
				t.Fatal("no worker ever streamed a checkpoint")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var r result
	select {
	case r = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not complete after worker kill")
	}
	if r.err != nil {
		t.Fatalf("request failed: %v\ncoordinator stderr: %s", r.err, coordErr.String())
	}
	if r.status != http.StatusOK {
		t.Fatalf("status = %d: %s\ncoordinator stderr: %s", r.status, r.body, coordErr.String())
	}
	var rep struct {
		Interrupted bool `json:"interrupted"`
	}
	if err := json.Unmarshal(r.body, &rep); err != nil {
		t.Fatalf("bad response JSON: %v (%s)", err, r.body)
	}
	if rep.Interrupted {
		t.Error("migrated run reported interrupted")
	}

	// Byte-identity against an uninterrupted run on a fresh worker.
	_, refBase, _ := startServer(t)
	refResp, err := http.Post(refBase+"/v1/harden", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer refResp.Body.Close()
	want, _ := io.ReadAll(refResp.Body)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference run failed: %s", want)
	}
	if normalizeElapsed(r.body) != normalizeElapsed(want) {
		t.Errorf("migrated result differs from uninterrupted run\n got %s\nwant %s", r.body, want)
	}

	counters, gauges := metricsSnap(t, coordBase)
	if counters["fleet.migrations"] < 1 {
		t.Errorf("fleet.migrations = %d, want >= 1", counters["fleet.migrations"])
	}
	if counters["fleet.dispatches"] != 2 {
		t.Errorf("fleet.dispatches = %d, want 2 (one per worker that held the job)", counters["fleet.dispatches"])
	}
	// The probe loop must have noticed the corpse by now.
	probeDeadline := time.Now().Add(5 * time.Second)
	for {
		_, gauges = metricsSnap(t, coordBase)
		if gauges["fleet.workers.healthy"] == 1 {
			break
		}
		if time.Now().After(probeDeadline) {
			t.Errorf("fleet.workers.healthy = %v, want 1 after worker death", gauges["fleet.workers.healthy"])
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The fleet status endpoint agrees.
	fresp, err := http.Get(coordBase + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var st struct {
		Healthy int `json:"healthy"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Healthy != 1 {
		t.Errorf("/v1/fleet healthy = %d, want 1", st.Healthy)
	}

	// The repeat drill: workers never cache resumed runs, so only the
	// coordinator's L1 holds the migrated job's result. A repeat must be
	// answered from it — marked cached, zero new dispatches, and
	// byte-identical to the first response modulo the cached flag and
	// wall clock — even though the owner has just resharded.
	rresp, err := http.Post(coordBase+"/v1/harden", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	rbody, _ := io.ReadAll(rresp.Body)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", rresp.StatusCode, rbody)
	}
	if key := rresp.Header.Get(serve.CacheKeyHeader); len(key) != 16 {
		t.Errorf("repeat %s = %q, want a 16-hex-digit key", serve.CacheKeyHeader, key)
	}
	if !strings.Contains(string(rbody), `"cached":true`) {
		t.Errorf("repeat after migration not served from the L1: %s", rbody)
	}
	uncache := func(s string) string { return strings.Replace(s, `"cached":true`, `"cached":false`, 1) }
	if uncache(normalizeElapsed(rbody)) != uncache(normalizeElapsed(r.body)) {
		t.Errorf("cached repeat differs from migrated result\n got %s\nwant %s", rbody, r.body)
	}
	counters, _ = metricsSnap(t, coordBase)
	if counters["fleet.cache.hits"] < 1 {
		t.Errorf("fleet.cache.hits = %d, want >= 1", counters["fleet.cache.hits"])
	}
	if counters["fleet.dispatches"] != 2 {
		t.Errorf("fleet.dispatches = %d after cached repeat, want still 2", counters["fleet.dispatches"])
	}
}

// TestCoordinatorFlagConflict: -coordinator and -worker together must
// refuse to start.
func TestCoordinatorFlagConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd := exec.Command(os.Args[0], "-coordinator", "http://127.0.0.1:1", "-worker", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "RSNSERVE_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("process exited 0 with conflicting flags")
	}
	if !strings.Contains(string(out), "mutually exclusive") {
		t.Errorf("output lacks conflict message: %s", out)
	}
}
