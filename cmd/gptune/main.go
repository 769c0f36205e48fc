// Command gptune tunes any workload from the scenario registry
// (internal/bench) with any of the supported autotuners, optionally seeding
// the run from a history database and archiving its evaluations back into it
// (the paper's "tuning improves over time" workflow). `gptune -app list`
// prints the catalog.
//
// Usage:
//
//	gptune -app list                                 # scenario catalog
//	gptune -app analytical -delta 4 -eps 20
//	gptune -app qr -app-param nodes=4 -eps 20
//	gptune -app gemm -tuner opentuner -eps 10
//	gptune -app superlu-mo -eps 40 -history runs.json
//	gptune -app qr -eps 20 -checkpoint run.ckpt
//	gptune -app qr -eps 20 -resume run.ckpt          # after a crash
//	gptune -app qr -eps 20 -surrogate rf             # random-forest surrogate
//	gptune -app qr -eps 20 -checkpoint b.ckpt -warm a.ckpt  # transfer hyperparameters
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/gptune"
	"repro/internal/bench"
	_ "repro/internal/bench/all"
)

// appProblem resolves the scenario through the registry — the registry, not
// this command, is the source of truth for what is tunable.
func appProblem(name, paramFlag string) (*gptune.Problem, error) {
	sc, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	params, err := parseParams(paramFlag)
	if err != nil {
		return nil, err
	}
	return sc.Problem(params)
}

// parseParams parses "-app-param k=v,k=v" overrides.
func parseParams(s string) (bench.Params, error) {
	if s == "" {
		return nil, nil
	}
	p := make(bench.Params)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("-app-param %q: want key=value[,key=value...]", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("-app-param %s: %v", k, err)
		}
		p[strings.TrimSpace(k)] = f
	}
	return p, nil
}

// printCatalog writes the registry catalog for -app list.
func printCatalog(w *os.File) error {
	infos, err := bench.Catalog()
	if err != nil {
		return err
	}
	for _, in := range infos {
		constrained := ""
		if in.Constrained {
			constrained = ", constrained"
		}
		optimum := ""
		if in.HasOptimum {
			optimum = ", known optimum"
		}
		fmt.Fprintf(w, "%-15s %s\n", in.Name, in.Description)
		fmt.Fprintf(w, "%-15s   α=%d tasks, β=%d tuning, γ=%d outputs%s%s\n",
			"", in.TaskDim, in.TuningDim, in.OutputDim, constrained, optimum)
		if len(in.Aliases) > 0 {
			fmt.Fprintf(w, "%-15s   aliases: %s\n", "", strings.Join(in.Aliases, ", "))
		}
		for _, pd := range in.Params {
			fmt.Fprintf(w, "%-15s   -app-param %s=%g  %s\n", "", pd.Name, pd.Default, pd.Help)
		}
	}
	return nil
}

func main() {
	var (
		app      = flag.String("app", "analytical", "scenario to tune: "+strings.Join(bench.Names(), ", ")+" ('list' prints the catalog)")
		appParam = flag.String("app-param", "", "scenario parameter overrides, key=value[,key=value...] (see -app list)")
		tuner    = flag.String("tuner", "gptune", "tuner: gptune (multitask MLA over all tasks) or one run per task of "+strings.Join(gptune.TunerNames(), ", "))
		delta    = flag.Int("delta", 3, "number of tasks δ (sampled from the task space)")
		eps      = flag.Int("eps", 20, "function evaluations per task ε_tot")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		history  = flag.String("history", "", "history database path: its records for the same app and tasks seed the run as prior samples, and the run's new evaluations are appended (gptune tuner only)")
		ckpt     = flag.String("checkpoint", "", "write-ahead log path: every evaluation is persisted as it completes (gptune tuner only)")
		resume   = flag.String("resume", "", "checkpoint path of a killed run to resume (same app, seed and flags required)")
		surr     = flag.String("surrogate", "", "surrogate backend: "+strings.Join(gptune.SurrogateKinds(), ", ")+" (default lcm; gptune tuner only)")
		refit    = flag.Int("refit-every", 0, "relearn surrogate hyperparameters every k-th generation, extending the model incrementally in between (0 or 1 = every generation; gptune tuner only)")
		induce   = flag.Int("inducing", 0, "inducing points per task for -surrogate sgp (0 = default 128)")
		warm     = flag.String("warm", "", "checkpoint path of a previous run whose fitted-model snapshots warm-start this run's modeling phases")
	)
	flag.Parse()

	if *app == "list" {
		if err := printCatalog(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	p, err := appProblem(*app, *appParam)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tasks, err := gptune.SampleTasks(p, *delta, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Tuning %s with %s: δ=%d tasks, ε_tot=%d\n", p.Name, *tuner, *delta, *eps)
	if *tuner == "gptune" {
		cp, err := openCheckpoint(*ckpt, *resume, p.Name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts := gptune.Options{
			EpsTot: *eps, Seed: *seed, Workers: *workers, LogY: true,
			Surrogate: *surr, RefitEvery: *refit, Inducing: *induce,
		}
		if cp != nil {
			defer cp.Close()
			opts.Checkpoint = cp // also archives every refit model, so a later run can -warm from it
		}
		var db *gptune.History
		if *history != "" {
			if db, err = gptune.LoadHistory(*history); err != nil {
				fmt.Fprintf(os.Stderr, "history: %v\n", err)
				os.Exit(1)
			}
			opts.Prior = gptune.PriorFromHistory(db, p.Name, tasks)
			fmt.Printf("history: %d prior samples from %s\n", len(opts.Prior), *history)
		}
		if *warm != "" {
			snaps, err := gptune.LoadModelSnapshots(*warm)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("warm start: %d model snapshots from %s\n", len(snaps), *warm)
			opts.WarmStart = snaps
		}
		// Full multitask MLA across all tasks.
		res, err := gptune.Tune(p, tasks, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if cp != nil {
			fmt.Printf("checkpoint: %d evaluations logged\n", cp.Logged())
		}
		for i, tr := range res.Tasks {
			x, y := tr.Best()
			fmt.Printf("task %d: %s\n", i, p.Tasks.Describe(tr.Task))
			fmt.Printf("  Popt: %s\n  Oopt: %v\n", p.Tuning.Describe(x), y)
			if p.Outputs.Dim() > 1 {
				fmt.Printf("  Pareto front: %d points\n", len(tr.ParetoFront()))
			}
		}
		fmt.Printf("stats: objective=%v modeling=%v search=%v total=%v evals=%d\n",
			res.Stats.Objective, res.Stats.Modeling, res.Stats.Search,
			res.Stats.Total, res.Stats.NumEvals)
		if db != nil {
			gptune.RecordResult(db, p.Name, res) // skips the prior samples the archive already holds
			if err := db.Save(*history); err != nil {
				fmt.Fprintf(os.Stderr, "history: %v\n", err)
				return
			}
			fmt.Printf("history: %d records in %s\n", db.Len(), *history)
		}
		return
	}

	if *ckpt != "" || *resume != "" || *surr != "" || *warm != "" {
		fmt.Fprintln(os.Stderr, "-checkpoint/-resume/-surrogate/-warm require the gptune tuner")
		os.Exit(1)
	}
	tn, err := gptune.NewTuner(*tuner)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, task := range tasks {
		tr, err := tn.Tune(p, task, *eps, *seed+int64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		x, y := tr.Best()
		fmt.Printf("task %d: %s\n  Popt: %s\n  Oopt: %v\n",
			i, p.Tasks.Describe(task), p.Tuning.Describe(x), y)
	}
}

// openCheckpoint interprets the -checkpoint/-resume flags: -resume reopens
// a killed run's log for deterministic replay, -checkpoint starts a fresh
// one, and together they must name the same path.
func openCheckpoint(ckpt, resume, problem string) (*gptune.Checkpointer, error) {
	if resume != "" {
		if ckpt != "" && ckpt != resume {
			return nil, fmt.Errorf("-checkpoint %s and -resume %s name different paths", ckpt, resume)
		}
		cp, err := gptune.Resume(resume, gptune.CheckpointOptions{Problem: problem})
		if err != nil {
			return nil, err
		}
		fmt.Printf("resuming from %s: %d evaluations already logged\n", resume, cp.Logged())
		return cp, nil
	}
	if ckpt == "" {
		return nil, nil
	}
	return gptune.NewCheckpoint(ckpt, gptune.CheckpointOptions{Problem: problem})
}
