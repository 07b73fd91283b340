package main

import (
	"context"
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
)

// coordOptions carries the coordinator-mode flags from main.
type coordOptions struct {
	addr        string
	workers     []string
	probeIvl    time.Duration
	retryBudget int
	ckptEvery   int
	l1Cache     int
	grace       time.Duration
	logger      *slog.Logger
}

// runCoordinator is the -coordinator main path: it fronts the given
// workers with the fleet dispatcher instead of running jobs locally.
// It prints the same "listening on" line as worker mode so wrappers
// and tests parse both identically, and drains the same way on
// SIGINT/SIGTERM: the listener closes, in-flight dispatches keep
// streaming until their workers finish or the grace period expires.
func runCoordinator(opt coordOptions) error {
	urls := make([]string, 0, len(opt.workers))
	for _, u := range opt.workers {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	coord, err := fleet.New(fleet.Config{
		Workers:         urls,
		ProbeInterval:   opt.probeIvl,
		RetryBudget:     opt.retryBudget,
		CheckpointEvery: opt.ckptEvery,
		L1CacheEntries:  opt.l1Cache,
		Logger:          opt.logger,
	})
	if err != nil {
		return err
	}
	coord.Start()
	defer coord.Close()

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler()}

	// Register before announcing the address, as in worker mode.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("rsnserve: listening on %s\n", ln.Addr())
	opt.logger.Info("coordinator listening", "addr", ln.Addr().String(), "workers", urls)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("rsnserve: %s, draining (grace %s)\n", sig, opt.grace)
		opt.logger.Info("coordinator draining", "signal", sig.String(), "grace", opt.grace.String())
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), opt.grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Grace expired with dispatches still streaming: cut them off.
		httpSrv.Close()
	}
	fmt.Println("rsnserve: drained")
	return nil
}
