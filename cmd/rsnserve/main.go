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
// its last checkpoint, bit-identically. See internal/fleet.
//
// Logs are structured (JSONL on stderr by default), every line
// correlated by the request's trace and request IDs.
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to 503
// and new jobs are rejected while in-flight requests keep running; when
// the grace period expires, the remaining syntheses are aborted
// cooperatively and return their partial fronts before the process
// exits. The drain also dumps the flight recorder — the last completed
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

	"rsnrobust/internal/serve"
	"rsnrobust/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent synthesis jobs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 16, "admitted-but-waiting jobs beyond the running ones; beyond that requests get 429 (negative = no waiting room)")
		evalW     = flag.Int("eval-workers", 1, "objective-evaluation workers per job")
		cacheN    = flag.Int("cache", 256, "harden result cache entries (negative disables)")
		maxDdl    = flag.Duration("max-deadline", 5*time.Minute, "cap on per-request deadlines")
		maxGens   = flag.Int("max-generations", 100_000, "cap on requested generations")
		maxPop    = flag.Int("max-population", 5_000, "cap on requested population size")
		grace     = flag.Duration("drain-grace", 10*time.Second, "how long a drain waits before aborting in-flight jobs")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "json", "log format: json (one object per line) or text")
		flight    = flag.Int("flight", 128, "flight recorder capacity in completed jobs (negative disables; dumped on drain and served at /debug/flight)")
		selftest  = flag.Bool("selftest", false, "start the server on a loopback port, run a load-generating smoke test against it, and exit")

		coordinator = flag.String("coordinator", "", "run as fleet coordinator fronting these comma-separated worker URLs instead of serving jobs locally")
		workerMode  = flag.Bool("worker", false, "run as a fleet worker (the default serving mode; the flag just documents intent)")
		probeIvl    = flag.Duration("probe-interval", time.Second, "coordinator: worker health-probe period")
		retryBudget = flag.Int("retry-budget", 4, "coordinator: dispatch retries per job beyond the first attempt")
		ckptEvery   = flag.Int("checkpoint-every", 5, "coordinator: checkpoint cadence (generations) injected into dispatched jobs; negative disables migration checkpoints")
		l1Cache     = flag.Int("l1-cache", 256, "coordinator: completed-result L1 cache entries (negative disables)")
	)
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, telemetry.ParseLogLevel(*logLevel), *logFormat)

	if *coordinator != "" {
		if *workerMode {
			fmt.Fprintln(os.Stderr, "rsnserve: -coordinator and -worker are mutually exclusive")
			os.Exit(1)
		}
		if err := runCoordinator(coordOptions{
			addr:        *addr,
			workers:     strings.Split(*coordinator, ","),
			probeIvl:    *probeIvl,
			retryBudget: *retryBudget,
			ckptEvery:   *ckptEvery,
			l1Cache:     *l1Cache,
			grace:       *grace,
			logger:      logger,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "rsnserve: %v\n", err)
			os.Exit(1)
		}
		return
	}

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
			fmt.Fprintf(os.Stderr, "rsnserve: selftest FAILED: %v\n", err)
			os.Exit(1)
		}
		if err := runFleetSelftest(); err != nil {
			fmt.Fprintf(os.Stderr, "rsnserve: selftest FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("rsnserve: selftest PASS")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsnserve: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// Register before announcing the address: a signal sent as soon as
	// the listening line is read must drain, not kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// The printed address is the resolved one (":0" picks a port), so
	// wrappers and tests can parse where to connect.
	fmt.Printf("rsnserve: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "workers", *workers, "queue", *queue)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("rsnserve: %s, draining (grace %s)\n", sig, *grace)
		logger.Info("draining", "signal", sig.String(), "grace", grace.String())
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "rsnserve: %v\n", err)
		os.Exit(1)
	}

	// Drain: stop admitting, let in-flight requests run for the grace
	// period, then abort the rest cooperatively — each returns its
	// partial front to its waiting client, so Shutdown's wait always
	// terminates shortly after the timer fires.
	srv.StartDrain()
	timer := time.AfterFunc(*grace, srv.AbortInFlight)
	defer timer.Stop()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "rsnserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	dumpFlight(srv, logger)
	fmt.Println("rsnserve: drained")
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
