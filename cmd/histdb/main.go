// Command histdb inspects and merges GPTune history databases (the paper's
// archive of tuning data across executions).
//
// Usage:
//
//	histdb -db runs.json list
//	histdb -db runs.json stats     # eval/model counts, per-task breakdown, WAL vs snapshot
//	histdb -db runs.json best pdgeqrf
//	histdb -db runs.json merge other.json
//	histdb -db run.ckpt verify     # inspect snapshot + write-ahead log
//	histdb -db run.ckpt compact    # fold the log into the snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/histdb"
)

func main() {
	var (
		dbPath  = flag.String("db", "gptune-history.json", "history database path")
		problem = flag.String("problem", "", "problem name filter")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: histdb -db <path> {list | best <problem> | merge <other.json> | verify | compact}")
		os.Exit(1)
	}

	// verify and compact act on the snapshot + write-ahead log pair
	// directly, before (or instead of) a plain Load.
	switch args[0] {
	case "verify":
		v, err := histdb.Verify(*dbPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d snapshot records, %d log records", *dbPath, v.SnapshotRecords, v.LogRecords)
		if v.SkippedRecords > 0 {
			fmt.Printf(" (%d already in the snapshot)", v.SkippedRecords)
		}
		if v.TornBytes > 0 {
			fmt.Printf(", torn tail of %d bytes (recoverable: a reopen discards it)", v.TornBytes)
		}
		fmt.Printf("; %d total after recovery\n", v.SnapshotRecords+v.LogRecords)
		return
	case "compact":
		w, err := histdb.OpenWAL(*dbPath, histdb.WALOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.Compact(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n := w.Len()
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("compacted %s: %d records in the snapshot, log truncated\n", *dbPath, n)
		return
	}

	db, err := histdb.Load(*dbPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch args[0] {
	case "list":
		fmt.Printf("%d records in %s\n", db.Len(), *dbPath)
		// One scan; evaluations only, so a log's model snapshots do not
		// inflate a problem's figure.
		evals := map[string]int{}
		for _, r := range db.Query(*problem, nil) {
			n := evals[r.Problem]
			if r.IsEval() {
				n++
			}
			evals[r.Problem] = n
		}
		probs := make([]string, 0, len(evals))
		for p := range evals {
			probs = append(probs, p)
		}
		sort.Strings(probs)
		for _, p := range probs {
			fmt.Printf("  problem %-16s %d tasks, %d evaluations\n", p, len(db.Tasks(p)), evals[p])
		}
	case "best":
		name := *problem
		if len(args) > 1 {
			name = args[1]
		}
		if name == "" {
			fmt.Fprintln(os.Stderr, "usage: histdb -db <path> best <problem>")
			os.Exit(1)
		}
		for _, task := range db.Tasks(name) {
			if r, ok := db.Best(name, task); ok {
				fmt.Printf("  task %v: best %v at config %v (%s)\n",
					task, r.Outputs, r.Config, r.Stamp.Format("2006-01-02 15:04"))
			}
		}
	case "stats":
		printStats(db, *dbPath, *problem)
	case "merge":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "merge requires a second database path")
			os.Exit(1)
		}
		other, err := histdb.Load(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		db.Merge(other)
		if err := db.Save(*dbPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("merged %d records from %s; %s now has %d\n", other.Len(), args[1], *dbPath, db.Len())
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", args[0])
		os.Exit(1)
	}
}

// printStats summarizes a database: record counts by kind, the snapshot/WAL
// split, and per problem the per-task evaluation counts with the incumbent
// best output.
func printStats(db *histdb.DB, path, problemFilter string) {
	evals, models := 0, 0
	byKind := map[string]int{}
	probSet := map[string]bool{}
	for _, r := range db.Query(problemFilter, nil) {
		if r.IsEval() {
			evals++
		} else {
			models++
			byKind[r.Surrogate]++
		}
		probSet[r.Problem] = true
	}
	fmt.Printf("%s: %d records (%d evaluations, %d model snapshots)\n", path, evals+models, evals, models)
	if len(byKind) > 0 {
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Print("  model snapshots by surrogate:")
		for _, k := range kinds {
			name := k
			if name == "" {
				name = "(unknown)"
			}
			fmt.Printf(" %s=%d", name, byKind[k])
		}
		fmt.Println()
	}
	if v, err := histdb.Verify(path); err == nil {
		fmt.Printf("  storage: %d in snapshot, %d in write-ahead log", v.SnapshotRecords, v.LogRecords)
		if v.TornBytes > 0 {
			fmt.Printf(", torn tail of %d bytes", v.TornBytes)
		}
		fmt.Println()
	}
	probs := make([]string, 0, len(probSet))
	for p := range probSet {
		probs = append(probs, p)
	}
	sort.Strings(probs)
	for _, p := range probs {
		fmt.Printf("  problem %s\n", p)
		for _, task := range db.Tasks(p) {
			n := 0
			for _, r := range db.Query(p, task) {
				if r.IsEval() {
					n++
				}
			}
			if r, ok := db.Best(p, task); ok {
				fmt.Printf("    task %v: %d evaluations, best %v at config %v\n", task, n, r.Outputs, r.Config)
			} else {
				fmt.Printf("    task %v: %d evaluations, no outputs recorded\n", task, n)
			}
		}
	}
}
