package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nopSink satisfies telemetrySink for registry-only tests.
type nopSink struct{}

func (nopSink) setHealthy(int) {}
func (nopSink) setOpen(int)    {}
func (nopSink) probeFailed()   {}

// newTestRegistry builds a registry over synthetic URLs, every worker
// marked healthy.
func newTestRegistry(urls []string) *registry {
	rg := newRegistry(urls, 3, time.Minute, time.Second, time.Hour, time.Now, nopSink{})
	for _, w := range rg.workers {
		w.healthy.Store(true)
	}
	return rg
}

func testURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://worker-%d.test:9000", i)
	}
	return urls
}

// TestRegistryPickLeastLoaded pins the routing decision: the lowest
// load wins (registry order breaks ties), the avoided worker is chosen
// only when nothing else admits traffic, unhealthy and breaker-open
// workers are skipped, and pick returns nil when no worker is eligible.
func TestRegistryPickLeastLoaded(t *testing.T) {
	rg := newTestRegistry(testURLs(3))
	w0, w1, w2 := rg.workers[0], rg.workers[1], rg.workers[2]

	if w := rg.pick(nil); w != w0 {
		t.Fatalf("equal loads: pick = %s, want w0 (registry order)", urlOf(w))
	}
	w0.load.Store(2 * loadScale)
	w1.load.Store(3 * loadScale)
	w2.load.Store(1 * loadScale)
	if w := rg.pick(nil); w != w2 {
		t.Fatalf("pick = %s, want w2 (lowest load)", urlOf(w))
	}
	// The avoided worker sorts last even at the lowest load.
	if w := rg.pick(w2); w != w0 {
		t.Fatalf("pick(avoid=w2) = %s, want w0 (next lowest load)", urlOf(w))
	}

	// Unhealthy and breaker-open workers are skipped.
	w0.healthy.Store(false)
	for i := 0; i < 3; i++ { // threshold 3 opens w1's breaker
		w1.br.failure()
	}
	if w := rg.pick(w2); w != w2 {
		t.Fatalf("pick(avoid=w2) with w0 unhealthy and w1 open = %s, want the avoided w2", urlOf(w))
	}
	if w := rg.pick(nil); w != w2 {
		t.Fatalf("pick = %s, want w2, the only eligible worker", urlOf(w))
	}

	// No eligible worker at all.
	w2.healthy.Store(false)
	if w := rg.pick(nil); w != nil {
		t.Fatalf("pick = %s with no eligible worker, want nil", urlOf(w))
	}
	if w := rg.pick(w2); w != nil {
		t.Fatalf("pick(avoid=w2) = %s with no eligible worker, want nil", urlOf(w))
	}
}

// urlOf names a picked worker in failure messages, nil included.
func urlOf(w *worker) string {
	if w == nil {
		return "<nil>"
	}
	return w.url
}

// TestRegistryPickProbedQueueLoad: a sweep sends each worker one
// request, GET /readyz, and the queue its body reports (running plus
// waiting jobs) becomes the worker's load hint, which routes the next
// pick.
func TestRegistryPickProbedQueueLoad(t *testing.T) {
	bodies := []string{
		`{"status":"ready","running":2,"waiting":1}`,
		`{"status":"ready","running":1,"waiting":0}`,
	}
	var reqs [2]atomic.Int64
	urls := make([]string, len(bodies))
	for i, body := range bodies {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			reqs[i].Add(1)
			if r.URL.Path != "/readyz" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprint(w, body)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rg := newRegistry(urls, 3, time.Minute, time.Second, time.Hour, time.Now, nopSink{})
	rg.sweep()
	for i, w := range rg.snapshot() {
		if n := reqs[i].Load(); n != 1 {
			t.Errorf("worker %d got %d probe requests in one sweep, want 1", i, n)
		}
		if want := []float64{3, 1}[i]; !w.Healthy || w.Load != want {
			t.Errorf("worker %d: healthy %v, load %v, want healthy at load %v", i, w.Healthy, w.Load, want)
		}
	}
	if w := rg.pick(nil); w != rg.workers[1] {
		t.Errorf("pick = %s, want the worker reporting the shorter queue", urlOf(w))
	}
}

// TestRegistryMarkFailureEagerHealthFlip: the regression for the
// markFailure bug — a dispatch failure must flip the worker unhealthy
// immediately, so the very next pick avoids it even though its breaker
// (threshold 3) is still closed. Before the fix, health stayed true and
// pick kept routing to the corpse until the breaker tripped or a probe
// sweep noticed.
func TestRegistryMarkFailureEagerHealthFlip(t *testing.T) {
	rg := newTestRegistry(testURLs(2))
	w0, w1 := rg.workers[0], rg.workers[1]

	// Equal load: registry order makes w0 the first pick.
	if w := rg.pick(nil); w != w0 {
		t.Fatalf("baseline pick = %v, want w0", w.url)
	}
	rg.markFailure(w0)
	if w0.healthy.Load() {
		t.Fatal("markFailure did not flip health eagerly")
	}
	if w0.br.State() != "closed" {
		t.Fatalf("one failure tripped the breaker (threshold 3): %s", w0.br.State())
	}
	if w := rg.pick(nil); w != w1 {
		t.Fatalf("pick after failure = %v, want w1 (w0 just hard-failed)", w)
	}
	// A successful probe restores health (the probe loop's job).
	w0.healthy.Store(true)
	if w := rg.pick(nil); w != w0 {
		t.Fatal("restored worker not picked again")
	}
}

// TestRegistryMarkDoneLostUpdate: the regression for the markDone bug.
// The old implementation clamped with a non-atomic pair —
// Add(-loadScale) observing a negative value followed by a blind
// Store(0) — so markDispatched bumps landing between the two were
// erased, leaving the load hint permanently understated. A
// probabilistic schedule cannot pin the two-instruction window (on a
// single-core runner it essentially never splits), so the test drives
// the interleaving deterministically through the markDoneYield seam:
// two dispatches land exactly inside the clamp window of a spurious
// done (the "saw negative" case, e.g. after a probe stored a smaller
// absolute load). The old code stored 0 over them; the CAS loop's swap
// fails and retries against the bumped value, retiring exactly one job.
func TestRegistryMarkDoneLostUpdate(t *testing.T) {
	rg := newTestRegistry(testURLs(1))
	w := rg.workers[0]

	injected := false
	markDoneYield = func() {
		if injected {
			return
		}
		injected = true
		rg.markDispatched(w)
		rg.markDispatched(w)
	}
	defer func() { markDoneYield = nil }()

	rg.markDone(w)
	if got := w.load.Load(); got != loadScale {
		t.Fatalf("load = %d after 2 dispatches raced 1 done, want %d — markDone clobbered the concurrent bumps",
			got, loadScale)
	}
}

// TestRegistryMarkDoneConcurrentClamp exercises the CAS clamp under
// free-running contention (run with -race via make chaos-cache) and
// pins the conservation invariant: a done retires at most one dispatch
// and never drives the load below zero, so with margin more dispatches
// than dones the final load cannot drop under the margin.
func TestRegistryMarkDoneConcurrentClamp(t *testing.T) {
	rg := newTestRegistry(testURLs(1))
	w := rg.workers[0]

	const (
		goroutines = 4
		perG       = 2500
		margin     = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rg.markDone(w)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perG+margin/goroutines; i++ {
				rg.markDispatched(w)
			}
		}()
	}
	wg.Wait()
	if got := w.load.Load(); got < margin*loadScale {
		t.Fatalf("load = %d after %d dispatches and %d dones, want ≥ %d",
			got, goroutines*perG+margin, goroutines*perG, margin*loadScale)
	}
	// Sequential sanity: done below zero clamps, never goes negative.
	w.load.Store(0)
	rg.markDone(w)
	if got := w.load.Load(); got != 0 {
		t.Fatalf("markDone on idle worker left load %d, want 0", got)
	}
}
