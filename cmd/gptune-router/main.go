// Command gptune-router fronts a set of gptuned replicas with consistent-
// hash routing: every study lives on exactly one replica (its rendezvous
// owner among the healthy nodes), clients talk to the router's single
// address, and background health probes eject replicas that die or start
// draining. See internal/router for the routing and health semantics.
//
// Usage:
//
//	gptune-router -addr :8730 -replicas http://n1:8731,http://n2:8731,http://n3:8731
//
// The proxied API is gptuned's own (see cmd/gptuned); the router adds only
// its own GET /healthz, which reports per-replica health and answers 503
// when no replica is routable.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/mpx"
	"repro/internal/router"
)

func main() {
	var (
		addr      = flag.String("addr", ":8730", "listen address")
		replicas  = flag.String("replicas", "", "comma-separated gptuned base URLs (required)")
		probe     = flag.Duration("probe", time.Second, "health-probe period")
		threshold = flag.Int("fail-threshold", 3, "consecutive probe failures that eject a replica")
	)
	flag.Parse()

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, r)
		}
	}
	rt, err := router.New(router.Config{Replicas: reps, ProbeEvery: *probe, FailThreshold: *threshold})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptune-router:", err)
		os.Exit(1)
	}
	rt.Start()
	defer rt.Stop()

	hs := &http.Server{
		Addr:    *addr,
		Handler: rt.Handler(),
		// No write timeout: a suggest legitimately waits on its replica
		// through a modeling phase and other evaluators' reports, same
		// policy as gptuned itself.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var watcher sync.WaitGroup // the shutdown watcher, joined before exit
	mpx.Go(&watcher, func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := hs.Shutdown(dctx); serr != nil {
			fmt.Fprintln(os.Stderr, "gptune-router: drain deadline expired, forcing connections closed:", serr)
			_ = hs.Close()
		}
	})

	fmt.Println("gptune-router: listening on", *addr, "routing", len(reps), "replicas")
	err = hs.ListenAndServe()
	if err == http.ErrServerClosed {
		watcher.Wait()
		err = nil
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptune-router:", err)
		os.Exit(1)
	}
}
