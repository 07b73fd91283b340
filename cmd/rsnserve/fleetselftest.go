package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"time"

	"rsnrobust/internal/chaos"
	"rsnrobust/internal/fleet"
	"rsnrobust/internal/serve"
)

// selftestElapsedRe blanks the only nondeterministic response field so
// the migration step can compare fronts byte-for-byte.
var selftestElapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// runFleetSelftest is the coordinator half of -selftest: two
// in-process workers behind a coordinator, with worker 1's network
// path scripted to die right after its first streamed checkpoint. The
// job must migrate to worker 2 and come back byte-identical to an
// uninterrupted run, and the coordinator's merged metrics must show
// the dispatch, the migration, and both workers healthy.
func runFleetSelftest() error {
	startWorker := func() (string, func(), error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		httpSrv := &http.Server{Handler: serve.New(serve.Config{Workers: 1}).Handler()}
		go httpSrv.Serve(ln)
		return "http://" + ln.Addr().String(), func() { httpSrv.Close() }, nil
	}
	w1, stop1, err := startWorker()
	if err != nil {
		return err
	}
	defer stop1()
	w2, stop2, err := startWorker()
	if err != nil {
		return err
	}
	defer stop2()

	// Request 0 through the proxy is the dispatch sweep's health probe;
	// request 1 is the job itself, killed after the first checkpoint
	// event so the coordinator must migrate it.
	proxy, err := chaos.NewProxy(w1, []chaos.Fault{
		{},
		{Kind: chaos.FaultKillAfterEvents, Event: "checkpoint", Events: 1},
	})
	if err != nil {
		return err
	}
	defer proxy.Close()

	coord, err := fleet.New(fleet.Config{
		Workers:       []string{proxy.URL(), w2},
		ProbeInterval: time.Hour, // probed on demand by the dispatch path
		RetryBudget:   3,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		Seed:          42,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	coordSrv := &http.Server{Handler: coord.Handler()}
	go coordSrv.Serve(ln)
	defer coordSrv.Close()
	base := "http://" + ln.Addr().String()

	const job = `{"network":{"name":"TreeFlat"},"spec":{"seed":3},` +
		`"options":{"generations":40,"population":30,"seed":7}}`

	// The migration step's response, kept for the cache-repeat step's
	// byte comparison.
	var firstResult []byte

	steps := []struct {
		name string
		fn   func() error
	}{
		{"fleet migration", func() error {
			resp, err := http.Post(base+"/v1/harden", "application/json", strings.NewReader(job))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			got, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, got)
			}
			firstResult = got
			// The uninterrupted reference runs on a fresh worker so
			// neither cache nor resume state can mask a divergence.
			ref, stopRef, err := startWorker()
			if err != nil {
				return err
			}
			defer stopRef()
			refResp, err := http.Post(ref+"/v1/harden", "application/json", strings.NewReader(job))
			if err != nil {
				return err
			}
			defer refResp.Body.Close()
			want, _ := io.ReadAll(refResp.Body)
			norm := func(b []byte) string { return selftestElapsedRe.ReplaceAllString(string(b), `"elapsed_ms":0`) }
			if norm(got) != norm(want) {
				return fmt.Errorf("migrated result differs from uninterrupted run\n got %s\nwant %s", got, want)
			}
			if proxy.Killed() != 1 {
				return fmt.Errorf("proxy killed %d connections, want 1", proxy.Killed())
			}
			return nil
		}},
		{"fleet cache repeat", func() error {
			// Workers never cache resumed runs, so only the coordinator's
			// L1 can answer this repeat — with zero new dispatches (the
			// metrics step pins fleet.dispatches at 2).
			resp, err := http.Post(base+"/v1/harden", "application/json", strings.NewReader(job))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			got, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, got)
			}
			if key := resp.Header.Get(serve.CacheKeyHeader); len(key) != 16 {
				return fmt.Errorf("%s = %q, want a 16-hex-digit key", serve.CacheKeyHeader, key)
			}
			if !strings.Contains(string(got), `"cached":true`) {
				return fmt.Errorf("repeat not served from the L1 cache: %s", got)
			}
			norm := func(b []byte) string {
				s := strings.Replace(string(b), `"cached":true`, `"cached":false`, 1)
				return selftestElapsedRe.ReplaceAllString(s, `"elapsed_ms":0`)
			}
			if norm(got) != norm(firstResult) {
				return fmt.Errorf("cached repeat differs from first result\n got %s\nwant %s", got, firstResult)
			}
			return nil
		}},
		{"fleet status", func() error {
			// The kill marked worker 1 unhealthy eagerly; its backend is
			// actually fine (the proxy killed one connection, not the
			// worker), so a probe sweep — manual here, periodic in
			// production — must restore it to the healthy set.
			coord.ProbeNow()
			resp, err := http.Get(base + "/v1/fleet")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var st struct {
				Healthy int `json:"healthy"`
				Workers []struct {
					Breaker string `json:"breaker"`
				} `json:"workers"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				return err
			}
			if st.Healthy != 2 || len(st.Workers) != 2 {
				return fmt.Errorf("fleet status: %d healthy of %d workers, want 2 of 2", st.Healthy, len(st.Workers))
			}
			return nil
		}},
		{"fleet metrics", func() error {
			resp, err := http.Get(base + "/metrics?format=json")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var snap struct {
				Counters map[string]int64   `json:"counters"`
				Gauges   map[string]float64 `json:"gauges"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				return err
			}
			if snap.Counters["fleet.migrations"] < 1 {
				return fmt.Errorf("fleet.migrations = %d, want >= 1", snap.Counters["fleet.migrations"])
			}
			if snap.Counters["fleet.dispatches"] != 2 {
				return fmt.Errorf("fleet.dispatches = %d, want 2 — the cached repeat must not have dispatched", snap.Counters["fleet.dispatches"])
			}
			if snap.Counters["fleet.cache.hits"] < 1 {
				return fmt.Errorf("fleet.cache.hits = %d, want >= 1", snap.Counters["fleet.cache.hits"])
			}
			if snap.Gauges["fleet.workers.healthy"] != 2 {
				return fmt.Errorf("fleet.workers.healthy = %v, want 2", snap.Gauges["fleet.workers.healthy"])
			}
			// The text exposition must merge fleet and process families.
			tresp, err := http.Get(base + "/metrics")
			if err != nil {
				return err
			}
			defer tresp.Body.Close()
			b, _ := io.ReadAll(tresp.Body)
			for _, want := range []string{"rsn_fleet_migrations", "rsn_fleet_workers_healthy", "rsn_proc_goroutines"} {
				if !strings.Contains(string(b), want) {
					return fmt.Errorf("exposition lacks %s:\n%s", want, b)
				}
			}
			return nil
		}},
	}
	for _, st := range steps {
		t0 := time.Now()
		if err := st.fn(); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Printf("rsnserve: selftest %-20s ok (%v)\n", st.name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
