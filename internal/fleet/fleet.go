// Package fleet is the fault-tolerant coordination layer above the
// serve workers: one coordinator process fronts N rsnserve workers and
// keeps hardening jobs running through worker crashes, resets, and
// overload.
//
//	POST /v1/harden   — answered from the coordinator's L1 result cache
//	                    when the content address matches a completed
//	                    job; otherwise dispatched to the least-loaded
//	                    healthy worker. Transient failures (connect
//	                    errors, 5xx, 429) are retried with jittered
//	                    exponential backoff, and a worker dying mid-job
//	                    migrates the job to another worker from its last
//	                    streamed checkpoint, bit-identically.
//	POST /v1/analyze  — dispatched with the same retry loop (analyze is
//	                    stateless, so migration is plain retry).
//	GET  /v1/fleet    — per-worker health, breaker state, load, plus
//	                    the cache column (L1 fill, hit/miss counters).
//	GET  /healthz     — coordinator liveness.
//	GET  /readyz      — 200 while at least one worker is healthy.
//	GET  /metrics     — fleet gauges and counters (text or
//	                    ?format=json).
//
// The worker registry is driven by a periodic probe loop: /readyz
// decides health and its body's serve queue load becomes the load
// hint, and every probe or dispatch outcome feeds a per-worker circuit
// breaker (closed → open after consecutive failures → one half-open
// trial after a cooldown). Dispatch always asks the worker for the
// streaming form of the job with checkpoints at a configured cadence;
// the coordinator retains the latest checkpoint blob so a dead
// worker's job resumes on another worker exactly where it left off —
// the serve resume-equivalence property is what makes the migrated
// result byte-identical to an uninterrupted run. The L1 is the fleet's
// one result cache: routing ignores the cache key, because the L1
// answers every repeat it holds before any worker is picked.
//
// The coordinator owns no HTTP edge of its own: it serves through a
// serve.Edge (middleware, /healthz, /metrics) under the fleet.http
// metric prefix, answers through serve's JSON, error and SSE writers,
// and its L1 is a serve.ResultCache, so coordinator and worker
// responses are uniform by construction.
package fleet

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"rsnrobust/internal/serve"
	"rsnrobust/internal/telemetry"
)

// Config sizes the coordinator. Workers is required; everything else
// has a usable zero value via Defaults.
type Config struct {
	// Workers are the base URLs of the rsnserve workers to front, e.g.
	// "http://127.0.0.1:9101".
	Workers []string
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 2s).
	ProbeTimeout time.Duration
	// CheckpointEvery is the checkpoint cadence (in generations) the
	// coordinator injects into dispatched harden jobs when the client
	// did not ask for checkpoints itself (default 5). Checkpoints are
	// what make migration possible; 0 keeps the default, <0 disables
	// injection (jobs then restart from scratch on migration).
	CheckpointEvery int
	// RetryBudget is the number of dispatch attempts per job beyond the
	// first (default 4).
	RetryBudget int
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between attempts (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetryAfterMax caps how long a worker's Retry-After header can
	// make the coordinator wait (default 5s).
	RetryAfterMax time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker (default 3); BreakerCooldown is how long
	// it stays open before one half-open trial (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxBodyBytes bounds an accepted request body (default 8 MiB).
	MaxBodyBytes int64
	// L1CacheEntries sizes the coordinator's L1, a serve.ResultCache of
	// completed harden results keyed by the fleet-wide content address:
	// a hit answers a repeat request with zero dispatches. 0 = default
	// 256, negative disables the L1 (repeats then reach a worker-local
	// cache only if routing happens to pick the worker that computed
	// them).
	L1CacheEntries int
	// Seed makes the backoff jitter deterministic (default 1) — chaos
	// drills replay identically.
	Seed int64
	// Telemetry receives the fleet gauges and counters; nil creates a
	// fresh collector. Logger receives structured dispatch logs; nil
	// discards.
	Telemetry *telemetry.Collector
	Logger    *slog.Logger

	// now is the injectable clock for breaker tests.
	now func() time.Time
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.RetryAfterMax <= 0 {
		cfg.RetryAfterMax = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.L1CacheEntries == 0 {
		cfg.L1CacheEntries = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

// Coordinator fronts the worker fleet. Create one with New, call
// Start to begin health probing, mount Handler, and Close on shutdown.
type Coordinator struct {
	cfg  Config
	tel  *telemetry.Collector
	log  *slog.Logger
	reg  *registry
	edge *serve.Edge

	// client carries dispatch traffic. No overall timeout: harden jobs
	// stream for as long as they run.
	client *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	// l1 is the coordinator's layer of the fleet-wide result cache; it
	// accounts lookups for cacheable requests as fleet.cache.{hits,misses}.
	l1 *serve.ResultCache

	healthyG    *telemetry.Gauge
	openG       *telemetry.Gauge
	dispatchesC *telemetry.Counter
	retriesC    *telemetry.Counter
	migrationsC *telemetry.Counter
	probeFailC  *telemetry.Counter
}

// New builds a Coordinator from the configuration.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.Defaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	c := &Coordinator{
		cfg:         cfg,
		tel:         cfg.Telemetry,
		log:         cfg.Logger,
		client:      &http.Client{},
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		healthyG:    cfg.Telemetry.Gauge("fleet.workers.healthy"),
		openG:       cfg.Telemetry.Gauge("fleet.breakers.open"),
		dispatchesC: cfg.Telemetry.Counter("fleet.dispatches"),
		retriesC:    cfg.Telemetry.Counter("fleet.retries"),
		migrationsC: cfg.Telemetry.Counter("fleet.migrations"),
		probeFailC:  cfg.Telemetry.Counter("fleet.probe.failures"),
		l1:          serve.NewResultCache(cfg.L1CacheEntries, cfg.Telemetry, "fleet.cache"),
	}
	c.reg = newRegistry(cfg.Workers, cfg.BreakerThreshold, cfg.BreakerCooldown,
		cfg.ProbeTimeout, cfg.ProbeInterval, cfg.now, (*coordSink)(c))
	c.edge = serve.NewEdge(cfg.Telemetry, cfg.Logger, "fleet.http")
	c.edge.Handle("POST /v1/harden", "harden", c.handleHarden)
	c.edge.Handle("POST /v1/analyze", "analyze", c.handleAnalyze)
	c.edge.Handle("GET /v1/fleet", "fleet", c.handleFleet)
	c.edge.Handle("GET /readyz", "readyz", c.handleReadyz)
	return c, nil
}

// coordSink adapts the Coordinator's instruments to the registry's
// telemetry interface.
type coordSink Coordinator

func (s *coordSink) setHealthy(n int) { s.healthyG.Set(float64(n)) }
func (s *coordSink) setOpen(n int)    { s.openG.Set(float64(n)) }
func (s *coordSink) probeFailed()     { s.probeFailC.Inc() }

// Start launches the probe loop: one immediate sweep, then one per
// ProbeInterval.
func (c *Coordinator) Start() { c.reg.start() }

// Close stops the probe loop.
func (c *Coordinator) Close() { c.reg.close() }

// ProbeNow forces one synchronous probe sweep — drills use it to make
// health state deterministic instead of waiting out the interval.
func (c *Coordinator) ProbeNow() { c.reg.sweep() }

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.edge }

// Telemetry returns the collector the coordinator reports into.
func (c *Coordinator) Telemetry() *telemetry.Collector { return c.tel }

// backoff returns the jittered exponential delay before retry attempt
// n (0-based): uniformly random in [d/2, d] where d doubles from
// BackoffBase up to BackoffMax.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.rngMu.Lock()
	jit := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	return d/2 + jit
}

// handleFleet serves the registry snapshot.
func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	workers := c.reg.snapshot()
	healthy := 0
	for _, wk := range workers {
		if wk.Healthy {
			healthy++
		}
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"workers": workers,
		"healthy": healthy,
		"cache": map[string]any{
			"l1_entries":  c.l1.Len(),
			"l1_capacity": c.cfg.L1CacheEntries,
			"hits":        c.tel.Counter("fleet.cache.hits").Value(),
			"misses":      c.tel.Counter("fleet.cache.misses").Value(),
		},
	})
}

// handleReadyz is ready while at least one worker is healthy — a
// coordinator with an empty fleet should be rotated out.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, wk := range c.reg.snapshot() {
		if wk.Healthy {
			serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy workers"})
}
