// Command gptuned serves GPTune studies over HTTP (the ask/tell workflow):
// clients create a study, ask for configurations to run, and report
// measurements back; the server runs the multitask MLA machinery and
// persists every committed observation to a per-study write-ahead log, so
// killing the daemon and restarting it resumes all studies losing at most
// the evaluations that were in flight.
//
// Usage:
//
//	gptuned -addr :8731 -data ./studies
//
// API (JSON bodies; gptune/api declares every shape and route):
//
//	POST /studies                  create a study from a StudySpec; a
//	                               "scenario" field names a registry
//	                               workload whose spaces (constraints
//	                               included) are instantiated server-side
//	GET  /studies                  list study names
//	GET  /studies/{s}              progress and status
//	POST /studies/{s}/suggest      next configuration ({"task": n}, -1 = any)
//	POST /studies/{s}/report       {"id", "y"} or {"id", "failed", "error"}
//	GET  /studies/{s}/best         incumbent per task (objective 0)
//	GET  /studies/{s}/pareto       non-dominated set per task
//	GET  /studies/{s}/history      full evaluation history per task
//	GET  /studies/{s}/snapshot     export the study as an Archive (migration)
//	POST /studies/import           re-home an Archive onto this replica
//	GET  /healthz                  routability: 200 ok, 503 draining
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"flag"

	"repro/gptune/api"
	_ "repro/internal/bench/all" // full workload catalog for scenario studies
	"repro/internal/mpx"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8731", "listen address")
		data     = flag.String("data", "gptuned-data", "data directory (study specs + history WALs)")
		slots    = flag.Int("model-slots", 1, "studies allowed to run modeling/search concurrently")
		maxBody  = flag.Int64("max-body", api.DefaultMaxBodyBytes, "request body size cap in bytes (imports: the protocol's fixed 64 MiB)")
		drainFor = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()

	srv, err := serve.NewServer(serve.Config{DataDir: *data, ModelSlots: *slots, MaxBodyBytes: *maxBody})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptuned:", err)
		os.Exit(1)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A suggest legitimately holds its request open — through a batch's
		// modeling phase and the other evaluators' reports, up to the
		// server's own bound on that wait — so there is no write timeout;
		// slow-client abuse is bounded at the header and idle layers
		// instead.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var watcher sync.WaitGroup
	mpx.Go(&watcher, func() {
		<-ctx.Done()
		// Flip /healthz to 503 before draining so a router stops routing
		// work here while the existing handlers finish; parked suggests are
		// released with a 503, so the drain waits on none of them.
		srv.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		// Shutdown drains in-flight handlers (including modeling-phase
		// suggests); only once they are gone is it safe to close the study
		// WALs. ListenAndServe returns the moment Shutdown *begins*, so
		// main must join this watcher, not wait on ListenAndServe alone —
		// otherwise srv.Close races handlers still committing to the WALs.
		if serr := hs.Shutdown(dctx); serr != nil {
			// Drain deadline expired with connections still open: force
			// them closed so no handler outlives this point. Their clients
			// see aborted requests; every evaluation already acked is on
			// disk, and a late commit hits the closed WAL's clean error
			// instead of racing the teardown.
			fmt.Fprintln(os.Stderr, "gptuned: drain deadline expired, forcing connections closed:", serr)
			if cerr := hs.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "gptuned: forced close:", cerr)
			}
		}
	})

	fmt.Println("gptuned: listening on", *addr, "data in", *data)
	err = hs.ListenAndServe()
	if err == http.ErrServerClosed {
		// Graceful path: wait for the watcher to finish draining (or force-
		// closing) every handler before touching the WALs.
		watcher.Wait()
	}
	if cerr := srv.Close(); err == nil || err == http.ErrServerClosed {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gptuned:", err)
		os.Exit(1)
	}
}
