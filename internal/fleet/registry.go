package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rsnrobust/internal/serve"
)

// Worker is one registered worker's live view, as reported by
// GET /v1/fleet.
type Worker struct {
	URL        string  `json:"url"`
	Healthy    bool    `json:"healthy"`
	Breaker    string  `json:"breaker"`
	Load       float64 `json:"load"`
	Dispatched int64   `json:"dispatched"`
	Failures   int64   `json:"failures"`
}

// worker is the registry's record of one backend.
type worker struct {
	url string
	br  *breaker

	healthy    atomic.Bool
	load       atomic.Int64 // running+waiting jobs, scaled by loadScale
	dispatched atomic.Int64
	failures   atomic.Int64
}

// loadScale keeps fractional gauge sums exact enough in an int64.
const loadScale = 1000

// registry tracks the fleet's workers: a periodic probe loop refreshes
// health and load hints with one GET /readyz per worker (the body
// carries the serve admission queue), and dispatch outcomes feed each
// worker's breaker. pick() is the routing decision: the least-loaded healthy
// worker whose breaker admits traffic.
type registry struct {
	workers []*worker
	probe   *http.Client
	tel     telemetrySink

	mu sync.Mutex // serializes pick()

	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

// telemetrySink is the slice of the telemetry collector the registry
// needs; an interface so registry tests need no collector.
type telemetrySink interface {
	setHealthy(n int)
	setOpen(n int)
	probeFailed()
}

func newRegistry(urls []string, threshold int, cooldown time.Duration, probeTimeout time.Duration, interval time.Duration, now func() time.Time, tel telemetrySink) *registry {
	rg := &registry{
		probe:    &http.Client{Timeout: probeTimeout},
		tel:      tel,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, u := range urls {
		rg.workers = append(rg.workers, &worker{
			url: u,
			br:  newBreaker(threshold, cooldown, now),
		})
	}
	return rg
}

// start launches the periodic probe loop (one immediate sweep, then one
// per interval).
func (rg *registry) start() {
	go func() {
		defer close(rg.done)
		rg.sweep()
		t := time.NewTicker(rg.interval)
		defer t.Stop()
		for {
			select {
			case <-rg.stop:
				return
			case <-t.C:
				rg.sweep()
			}
		}
	}()
}

// close stops the probe loop and waits for it to exit.
func (rg *registry) close() {
	rg.once.Do(func() { close(rg.stop) })
	<-rg.done
}

// sweep probes every worker concurrently and refreshes the fleet
// gauges. Exported to the coordinator (via ProbeNow) so tests can force
// a deterministic refresh instead of waiting out the interval.
func (rg *registry) sweep() {
	var wg sync.WaitGroup
	for _, w := range rg.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			rg.probeOne(w)
		}(w)
	}
	wg.Wait()
	healthy, open := 0, 0
	for _, w := range rg.workers {
		if w.healthy.Load() {
			healthy++
		}
		if w.br.State() != "closed" {
			open++
		}
	}
	rg.tel.setHealthy(healthy)
	rg.tel.setOpen(open)
}

// probeOne checks one worker with one request: /readyz decides health,
// and on success the admission queue its body reports becomes the load
// hint. Probe outcomes feed the breaker, so a dead worker's breaker
// opens without any dispatch traffic and a recovered worker's closes
// again.
func (rg *registry) probeOne(w *worker) {
	ready, load, err := rg.checkReady(w.url)
	if err != nil || !ready {
		w.healthy.Store(false)
		w.br.failure()
		rg.tel.probeFailed()
		return
	}
	w.healthy.Store(true)
	w.br.success()
	w.load.Store(int64(load * loadScale))
}

// checkReady asks the worker's /readyz whether it takes jobs and reads
// the running plus waiting jobs of its admission queue — exactly how
// much work is ahead of a new dispatch. A body that does not decode
// reports no load.
func (rg *registry) checkReady(url string) (ready bool, load float64, err error) {
	resp, err := rg.probe.Get(url + "/readyz")
	if err != nil {
		return false, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var r serve.Readiness
	_ = json.NewDecoder(resp.Body).Decode(&r)
	return resp.StatusCode == http.StatusOK, r.Running + r.Waiting, nil
}

// pick selects the least-loaded healthy worker whose breaker admits
// traffic; the avoided worker (the one the previous attempt failed on)
// is chosen only when no other worker is eligible. nil means no worker
// is currently eligible.
func (rg *registry) pick(avoid *worker) *worker {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	cands := make([]*worker, 0, len(rg.workers))
	for _, w := range rg.workers {
		if w.healthy.Load() {
			cands = append(cands, w)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		// The avoided worker sorts last regardless of load.
		if (cands[i] == avoid) != (cands[j] == avoid) {
			return cands[j] == avoid
		}
		return cands[i].load.Load() < cands[j].load.Load()
	})
	for _, w := range cands {
		// allow() may claim a half-open trial slot, so it is only asked
		// once we are committed to using this worker.
		if w.br.allow() {
			return w
		}
	}
	return nil
}

// markDispatched bumps the worker's load hint immediately, so a burst
// of dispatches between two probe sweeps still spreads across workers.
func (rg *registry) markDispatched(w *worker) {
	w.dispatched.Add(1)
	w.load.Add(loadScale)
}

// markDoneYield, when non-nil (tests only), runs between reading the
// load and publishing the clamped value. It is the deterministic seam
// the regression test uses to interleave a concurrent markDispatched at
// the exact point where the pre-CAS implementation (Add below zero,
// then a blind Store(0)) erased the bump; probabilistic scheduling
// cannot reach that two-instruction window reliably, least of all on a
// single-core runner.
var markDoneYield func()

// markDone undoes markDispatched's optimistic load bump, clamping at
// zero with a CAS loop: a probe sweep may have stored a fresh (smaller)
// absolute load in between, and the clamp must not clobber a concurrent
// markDispatched bump the way a blind Store(0) after a negative Add
// could — the CAS simply fails and retries against the bumped value.
func (rg *registry) markDone(w *worker) {
	for {
		cur := w.load.Load()
		next := cur - loadScale
		if next < 0 {
			next = 0
		}
		if markDoneYield != nil {
			markDoneYield()
		}
		if w.load.CompareAndSwap(cur, next) {
			return
		}
	}
}

// markFailure records a dispatch failure: breaker food plus an eager
// health flip, so the very next pick avoids this worker even before the
// probe loop notices it is gone. The next successful probe restores
// health.
func (rg *registry) markFailure(w *worker) {
	w.failures.Add(1)
	w.healthy.Store(false)
	w.br.failure()
}

// markSuccess records a successful dispatch.
func (rg *registry) markSuccess(w *worker) {
	w.br.success()
}

// snapshot renders the registry for GET /v1/fleet.
func (rg *registry) snapshot() []Worker {
	out := make([]Worker, 0, len(rg.workers))
	for _, w := range rg.workers {
		out = append(out, Worker{
			URL:        w.url,
			Healthy:    w.healthy.Load(),
			Breaker:    w.br.State(),
			Load:       float64(w.load.Load()) / loadScale,
			Dispatched: w.dispatched.Load(),
			Failures:   w.failures.Load(),
		})
	}
	return out
}
