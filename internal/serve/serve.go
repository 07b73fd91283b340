// Package serve is the hardening-as-a-service HTTP subsystem: a
// production-grade JSON API over the existing synthesis machinery.
//
//	POST /v1/analyze  — parse an ICL network (or generate a named
//	                    benchmark), build the SP-tree, run the exact
//	                    criticality analysis and return the damage
//	                    profile.
//	POST /v1/harden   — the full selective-hardening synthesis with
//	                    algorithm / population / generations / deadline
//	                    knobs, returning the Pareto front and the
//	                    Table I constrained picks.
//	GET  /healthz     — liveness (200 while the process runs).
//	GET  /readyz      — readiness (503 once draining) and the admission
//	                    queue's load, a fleet coordinator's routing hint.
//	GET  /metrics     — instrument exposition (text; ?format=json for
//	                    the full telemetry snapshot).
//	GET  /v1/jobs     — the running jobs with their live progress and
//	                    the recently finished ones.
//	GET  /debug/flight — the finished jobs with their span trees
//	                    (?trace_id= for one).
//
// Every request-driven computation runs as a job on a moea.RunSet
// behind a bounded admission queue: at most Workers jobs run at once,
// at most QueueDepth more may wait, and anything beyond that is
// rejected immediately with 429 and a Retry-After estimate — the
// backpressure contract that keeps latency bounded under overload
// instead of letting requests pile up. Each job gets a per-request
// context deadline wired through the PR 4 cancellation path, so a
// timed-out request returns the best front at the last completed
// generation boundary with "interrupted": true rather than an error.
// Completed (uninterrupted) harden results land in a content-addressed
// LRU cache keyed by FNV-1a over (network bytes, spec, options, seed).
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"rsnrobust/internal/telemetry"
)

// Config sizes the server. The zero value is usable: Defaults fills
// every field that is unset.
type Config struct {
	// Workers is the number of synthesis jobs allowed to run
	// concurrently (0 = GOMAXPROCS).
	Workers int
	// QueueDepth is the number of admitted-but-waiting jobs beyond the
	// running ones; a request arriving with the queue full is rejected
	// with 429 (<0 = 0, i.e. no waiting room; default 16).
	QueueDepth int
	// EvalWorkers sizes each job's objective-evaluation pool. The
	// default 1 keeps jobs single-threaded so Workers alone bounds the
	// CPU the service uses; raise it only when jobs are scarce and big.
	EvalWorkers int
	// CacheEntries bounds the content-addressed harden result cache
	// (0 = default 256, <0 disables caching).
	CacheEntries int
	// MaxDeadline caps the per-request deadline; requests asking for
	// more (or for none at all) are clamped to it. 0 = default 5m.
	MaxDeadline time.Duration
	// MaxGenerations and MaxPopulation bound the evolutionary knobs a
	// request may ask for (defaults 100000 and 5000).
	MaxGenerations int
	MaxPopulation  int
	// MaxBodyBytes bounds the request body, which bounds inline ICL
	// size (0 = default 8 MiB).
	MaxBodyBytes int64
	// Telemetry receives every instrument and span of the service and
	// its jobs; nil creates a fresh collector (the /metrics endpoint
	// needs one to be useful).
	Telemetry *telemetry.Collector
	// Logger receives the structured access and job logs, every line
	// correlated by the request's trace and request IDs. nil discards.
	Logger *slog.Logger
	// FlightEntries sizes the flight recorder, the ring of finished jobs
	// served at /v1/jobs and, with their span trees, at /debug/flight
	// (0 = default 128; <0 keeps the default ring without span trees and
	// turns /debug/flight off).
	FlightEntries int
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.EvalWorkers <= 0 {
		cfg.EvalWorkers = 1
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 5 * time.Minute
	}
	if cfg.MaxGenerations <= 0 {
		cfg.MaxGenerations = 100_000
	}
	if cfg.MaxPopulation <= 0 {
		cfg.MaxPopulation = 5_000
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	if cfg.FlightEntries == 0 {
		cfg.FlightEntries = defaultFlightEntries
	}
	return cfg
}

const (
	defaultFlightEntries = 128
	// spanLimit bounds the collector's retained span history and its
	// retained generation history, each to this many records: a
	// long-running server must not accumulate either without bound.
	spanLimit = 4096
)

// Server is the hardening service. Create one with New, mount
// Handler() on an http.Server, and on shutdown call StartDrain (stop
// admitting), then AbortInFlight once the grace period runs out (the
// in-flight jobs return their partial fronts and the handlers finish).
type Server struct {
	cfg    Config
	tel    *telemetry.Collector
	log    *slog.Logger
	cache  *ResultCache
	queue  *jobQueue
	flight *telemetry.FlightRecorder
	edge   *Edge

	draining atomic.Bool
	// hardCtx is cancelled by AbortInFlight: every job context derives
	// from it, so cancellation reaches running syntheses cooperatively.
	hardCtx  context.Context
	hardStop context.CancelFunc
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:   cfg,
		tel:   cfg.Telemetry,
		log:   cfg.Logger,
		cache: NewResultCache(cfg.CacheEntries, cfg.Telemetry, "serve.cache"),
		queue: newJobQueue(cfg.Workers, cfg.QueueDepth, cfg.Telemetry),
	}
	s.tel.SetSpanLimit(spanLimit)
	if cfg.FlightEntries > 0 {
		s.flight = telemetry.NewFlightRecorder(cfg.FlightEntries)
		s.tel.OnSpanEnd(s.flight.ObserveSpan)
	} else {
		s.flight = telemetry.NewFlightRecorder(defaultFlightEntries)
	}
	s.hardCtx, s.hardStop = context.WithCancel(context.Background())
	s.edge = NewEdge(cfg.Telemetry, cfg.Logger, "serve.http")
	s.edge.Handle("POST /v1/analyze", "analyze", s.handleAnalyze)
	s.edge.Handle("POST /v1/harden", "harden", s.handleHarden)
	s.edge.Handle("GET /v1/jobs", "jobs", s.handleJobs)
	s.edge.Handle("GET /readyz", "readyz", s.handleReadyz)
	s.edge.Handle("GET /debug/flight", "flight", s.handleFlight)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.edge }

// Telemetry returns the collector the service reports into.
func (s *Server) Telemetry() *telemetry.Collector { return s.tel }

// Flight returns the server's flight recorder — the process's black
// box, dumped by rsnserve on SIGTERM drain — or nil when it keeps no
// span trees (FlightEntries < 0).
func (s *Server) Flight() *telemetry.FlightRecorder {
	if s.cfg.FlightEntries < 0 {
		return nil
	}
	return s.flight
}

// StartDrain begins a graceful drain: /readyz flips to 503 so load
// balancers stop routing here, and new analysis/harden requests are
// rejected with 503. Requests already admitted keep running.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AbortInFlight cancels the context every in-flight job derives from.
// Running syntheses observe it at the next generation boundary and
// return valid partial results ("interrupted": true) to their waiting
// clients — the cooperative end of the drain, used when the grace
// period expires before the jobs finish on their own.
func (s *Server) AbortInFlight() { s.hardStop() }

// jobContext derives a job's context from the request context, folding
// in the server-wide abort signal.
func (s *Server) jobContext(reqCtx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(reqCtx)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}
