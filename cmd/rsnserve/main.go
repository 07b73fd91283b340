// Command rsnserve exposes the hardening pipeline as an HTTP service:
// POST /v1/analyze for the criticality analysis, POST /v1/harden for
// the full selective-hardening synthesis (add `Accept:
// text/event-stream` or ?stream=1 for live per-generation progress),
// plus /healthz, /readyz, /metrics, /v1/jobs and /debug/flight. See
// internal/serve for the API contract.
//
// Usage:
//
//	rsnserve -addr :8080 -workers 4 -queue 16
//	rsnserve -log-level debug -log-format text
//	rsnserve -selftest            # in-process smoke test, exits 0/1
//
// Fleet mode splits the service into workers and a coordinator:
//
//	rsnserve -worker -addr 127.0.0.1:9101
//	rsnserve -worker -addr 127.0.0.1:9102
//	rsnserve -coordinator http://127.0.0.1:9101,http://127.0.0.1:9102 -addr :8080
//
// The coordinator probes worker health, routes each job to the
// least-loaded healthy worker, retries transient failures with
// jittered backoff, and — because it asks workers to stream
// checkpoints — migrates a dead worker's job to another worker from
// its last checkpoint, bit-identically. Repeats of completed jobs are
// answered from the coordinator's L1 result cache, which -cache sizes
// as it sizes a worker's cache. Both modes serve through the same loop
// and drain on the same signals. See internal/fleet.
//
// Logs are structured (JSONL on stderr by default), every line
// correlated by the request's trace and request IDs.
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to 503
// and new jobs are rejected while in-flight requests keep running; when
// the grace period expires, the remaining syntheses are aborted
// cooperatively and return their partial fronts before the process
// exits. The drain also dumps the flight recorder — the last finished
// jobs with their span trees — to stderr as JSON, so a terminated pod
// leaves its black box in the log stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rsnrobust/internal/fleet"
	"rsnrobust/internal/serve"
	"rsnrobust/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent synthesis jobs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 16, "admitted-but-waiting jobs beyond the running ones; beyond that requests get 429 (negative = no waiting room)")
		evalW     = flag.Int("eval-workers", 1, "objective-evaluation workers per job")
		cacheN    = flag.Int("cache", 256, "harden result cache entries: the worker's cache, or the coordinator's L1 (negative disables)")
		maxDdl    = flag.Duration("max-deadline", 5*time.Minute, "cap on per-request deadlines")
		maxGens   = flag.Int("max-generations", 100_000, "cap on requested generations")
		maxPop    = flag.Int("max-population", 5_000, "cap on requested population size")
		grace     = flag.Duration("drain-grace", 10*time.Second, "how long a drain waits before aborting in-flight jobs")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "json", "log format: json (one object per line) or text")
		flight    = flag.Int("flight", 128, "flight recorder capacity in finished jobs, listed at /v1/jobs; their span trees are served at /debug/flight and dumped on drain (negative keeps 128 jobs without span trees)")
		selftest  = flag.Bool("selftest", false, "start the server on a loopback port, run a load-generating smoke test against it, and exit")

		coordinator = flag.String("coordinator", "", "run as fleet coordinator fronting these comma-separated worker URLs instead of serving jobs locally")
		workerMode  = flag.Bool("worker", false, "run as a fleet worker (the default serving mode; the flag just documents intent)")
		probeIvl    = flag.Duration("probe-interval", time.Second, "coordinator: worker health-probe period")
		retryBudget = flag.Int("retry-budget", 4, "coordinator: dispatch retries per job beyond the first attempt")
		ckptEvery   = flag.Int("checkpoint-every", 5, "coordinator: checkpoint cadence (generations) injected into dispatched jobs; negative disables migration checkpoints")
	)
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, telemetry.ParseLogLevel(*logLevel), *logFormat)
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "rsnserve: %v\n", err)
		os.Exit(1)
	}

	var svc service
	if *coordinator != "" {
		if *workerMode {
			fail(fmt.Errorf("-coordinator and -worker are mutually exclusive"))
		}
		var urls []string
		for _, u := range strings.Split(*coordinator, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		coord, err := fleet.New(fleet.Config{
			Workers:         urls,
			ProbeInterval:   *probeIvl,
			RetryBudget:     *retryBudget,
			CheckpointEvery: *ckptEvery,
			L1CacheEntries:  *cacheN,
			Logger:          logger,
		})
		if err != nil {
			fail(err)
		}
		coord.Start()
		defer coord.Close()
		// In-flight dispatches keep streaming until their workers finish
		// or the grace period expires, which cuts them off.
		svc = service{handler: coord.Handler(), attrs: []any{"mode", "coordinator", "workers", urls},
			abort: func(hs *http.Server) { hs.Close() }}
	} else {
		srv := serve.New(serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			EvalWorkers:    *evalW,
			CacheEntries:   *cacheN,
			MaxDeadline:    *maxDdl,
			MaxGenerations: *maxGens,
			MaxPopulation:  *maxPop,
			Logger:         logger,
			FlightEntries:  *flight,
		})
		if *selftest {
			if err := runSelftest(srv); err != nil {
				fail(fmt.Errorf("selftest FAILED: %w", err))
			}
			if err := runFleetSelftest(); err != nil {
				fail(fmt.Errorf("selftest FAILED: %w", err))
			}
			fmt.Println("rsnserve: selftest PASS")
			return
		}
		// Drain: stop admitting, let in-flight requests run for the grace
		// period, then abort the rest cooperatively — each returns its
		// partial front to its waiting client, so the shutdown's wait
		// always ends shortly after the timer fires.
		svc = service{handler: srv.Handler(), attrs: []any{"mode", "worker", "workers", *workers, "queue", *queue},
			drain: srv.StartDrain,
			abort: func(*http.Server) { srv.AbortInFlight() },
			done:  func() { dumpFlight(srv, logger) }}
	}
	if err := run(*addr, *grace, logger, svc); err != nil {
		fail(err)
	}
}

// service is what one rsnserve process serves: a worker's serve.Server
// or a fleet coordinator, with the steps of its drain.
type service struct {
	handler http.Handler
	attrs   []any // logged with the listening address
	// drain, if set, runs when the drain begins; abort runs if requests
	// are still in flight when the grace period expires; done, if set,
	// runs once the last request has finished.
	drain func()
	abort func(*http.Server)
	done  func()
}

// run serves svc on addr until SIGINT or SIGTERM, then drains it: the
// listener closes, in-flight requests run on for the grace period, and
// svc.abort ends whatever is left.
func run(addr string, grace time.Duration, logger *slog.Logger, svc service) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.handler}

	// Register before announcing the address: a signal sent as soon as
	// the listening line is read must drain, not kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// The printed address is the resolved one (":0" picks a port), so
	// wrappers and tests can parse where to connect.
	fmt.Printf("rsnserve: listening on %s\n", ln.Addr())
	logger.Info("listening", append([]any{"addr", ln.Addr().String()}, svc.attrs...)...)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("rsnserve: %s, draining (grace %s)\n", sig, grace)
		logger.Info("draining", "signal", sig.String(), "grace", grace.String())
	case err := <-errCh:
		return err
	}

	if svc.drain != nil {
		svc.drain()
	}
	timer := time.AfterFunc(grace, func() { svc.abort(httpSrv) })
	defer timer.Stop()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if svc.done != nil {
		svc.done()
	}
	fmt.Println("rsnserve: drained")
	return nil
}

// dumpFlight writes the flight recorder's final snapshot to stderr as
// one JSON object — the process's black box, preserved in the log
// stream of a terminated instance.
func dumpFlight(srv *serve.Server, logger *slog.Logger) {
	fr := srv.Flight()
	if fr == nil {
		return
	}
	snap := fr.Snapshot()
	logger.Info("flight recorder dump", "recorded", snap.Recorded, "jobs", len(snap.Jobs), "dropped_spans", snap.DroppedSpans)
	enc := json.NewEncoder(os.Stderr)
	_ = enc.Encode(snap)
}
