// Command benchmark is the repository's one performance ledger: four
// workloads, each owned by a different layer of the tuner and its service,
// measured end to end with tracing off and layer by layer in a separate
// traced run. See README.md for the metric and workload tables.
//
//	go run ./benchmark                         every workload, timed (+ -trace 1: traced), one ledger file
//	go run ./benchmark -workload tune_cold     one run; last stdout line is the result JSON
//	go run ./benchmark -compare old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix. run performs set-up, the measured
// phase, the correctness gate and tear-down, and returns every metric of
// the requested mode.
type workload struct {
	name    string
	why     string
	service bool // runs against the gptuned and gptune-router child binaries
	run     func(e *env) (*outcome, error)
}

func setupReps(e *env) int {
	if e.smoke {
		return 1
	}
	return 5
}

var workloads = []workload{
	{
		name: "tune_cold",
		why:  "library MLA from scratch on gemm then recsys, LCM refit every generation: over 85% of wall time is gp/la/L-BFGS modeling, so modeling gains show here",
		run: func(e *env) (*outcome, error) {
			sizes := tuneSizes{delta: 3, eps: 24}
			if e.smoke {
				sizes.eps = 10
			}
			return runTune(e, "tune_cold", []string{"gemm", "recsys"}, sizes)
		},
	},
	{
		name: "tune_warm",
		why:  "library MLA on recsys over a loaded 480-point history, one fit then rank-k appends: PSO over PredictInto dominates, so search and append gains show here",
		run: func(e *env) (*outcome, error) {
			sizes := tuneSizes{delta: 2, eps: 30, priorPerTask: 240, numStarts: 2, maxIter: 15, refitEvery: 1000}
			if e.smoke {
				sizes.eps, sizes.priorPerTask = 8, 40
			}
			return runTune(e, "tune_warm", []string{"recsys"}, sizes)
		},
	},
	{
		name:    "serve_closed",
		why:     "closed loop, nproc clients driving cheap rf studies through router and 2 gptuned: HTTP+JSON, router hop, engine mutex and WAL fsync dominate; modeling must not move it",
		service: true,
		run:     runServeClosed,
	},
	{
		name:    "serve_paced",
		why:     "12 paced evaluators on 4 async LCM gemm studies behind the router: evaluations dwarf requests, so evaluator idle time behind generation and the batch barrier shows",
		service: true,
		run:     runServePaced,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOnce runs one workload once. buildDir is where binaries and scratch
// go ("" = <root>/.bench_build).
func runOnce(ctx context.Context, w workload, buildDir string, seed int64, seconds float64, smoke, traced bool, log io.Writer) (*outcome, error) {
	e, err := newEnv(ctx, buildDir, seed, seconds, smoke, traced, log)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if w.service || traced { // the traced run's wire measurements spawn them too
		t0 := time.Now()
		if err := e.buildChildren(); err != nil {
			return nil, err
		}
		e.logf("%s: child binaries built in %.2f s", w.name, time.Since(t0).Seconds())
	}
	out, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		if err := addLayers(e, out); err != nil {
			return nil, fmt.Errorf("%s: layer measurements: %w", w.name, err)
		}
		path := filepath.Join(e.out, "trace-"+w.name+".json")
		if err := e.rec.WriteFile(path, w.name, seed); err != nil {
			return nil, err
		}
		e.logf("%s: %d spans written to %s", w.name, e.rec.Len(), path)
	}
	if err := out.finish(traced); err != nil {
		return nil, err
	}
	for _, p := range out.problems {
		e.logf("%s: INCORRECT: %s", w.name, p)
	}
	return out, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		one      = fs.String("workload", "", "run this one workload once and print its result JSON as the last line")
		list     = fs.String("workloads", strings.Join(workloadNames(), ","), "ledger mode: comma-separated workloads to run")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 15, "measured-phase time budget per run")
		trace    = fs.Int("trace", 0, "1: traced run (per-layer metrics, span files); ledger mode adds one traced run per workload")
		scale    = fs.String("scale", "full", "full, or smoke (every workload shrunk to a few seconds, for tests)")
		reps     = fs.Int("reps", 3, "ledger mode: timed repetitions per workload")
		outPath  = fs.String("o", "", "ledger mode: result file (default benchmark/out/ledger.json)")
		compare  = fs.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as derived from the metric catalogue and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "benchmark: -scale %q: want full or smoke\n", *scale)
		return 2
	}
	smoke := *scale == "smoke"
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *manifest:
		fmt.Fprintln(stdout, manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two ledger files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *one != "":
		w, ok := findWorkload(*one)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *one, strings.Join(workloadNames(), ", "))
			return 2
		}
		out, err := runOnce(ctx, w, "", *seed, *seconds, smoke, *trace != 0, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printOutcome(stdout, w.name, out)
		fmt.Fprintln(stdout, out.jsonLine())
		if !out.Correct {
			return 1
		}
		return 0
	}
	return runLedger(ctx, strings.Split(*list, ","), *seed, *seconds, smoke, *trace != 0, *reps, *outPath, stdout, stderr)
}
