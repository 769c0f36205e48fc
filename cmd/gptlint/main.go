// Command gptlint enforces the repo's determinism and concurrency
// invariants (DESIGN.md §7): no global math/rand and no generator built
// outside internal/rng, no wall-clock reads in the numeric core (directly
// or through any call chain), no map-range
// accumulation, no goroutines outside internal/mpx, no float ==, no dropped
// errors, no math function whose bits follow exp_amd64.s's FMA path in the
// numeric core, no locks held across blocking operations, no inconsistent lock
// orders, no join-free goroutines, and no allocations on //gptlint:hotpath
// paths. Built entirely on the stdlib toolchain — go/parser, go/types,
// go/importer — per the repo's stdlib-only rule.
//
// Usage:
//
//	gptlint [-json] [-github] [-graph] [-rules r1,r2] [-C dir]
//	        [-numeric paths] [-goallow paths] [patterns...]
//
// Patterns default to ./... and are resolved against the enclosing module.
// Exit status: 0 clean, 1 diagnostics reported, 2 load/type-check failure
// (or an unknown rule name).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside plain diagnostics")
	graph := flag.Bool("graph", false, "dump the interprocedural call graph with per-function effect summaries and exit")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all; see -rules=list)")
	chdir := flag.String("C", "", "resolve patterns against this directory's module instead of the cwd's")
	numeric := flag.String("numeric", "", "comma-separated import paths treated as the deterministic numeric core (default: the repo's gp,la,core,opt,acq,sample,sparse,space)")
	goallow := flag.String("goallow", "", "comma-separated import paths allowed to contain go statements (default: the repo's internal/mpx)")
	flag.Parse()

	if *rules == "list" {
		for _, r := range lint.KnownRules() {
			fmt.Println(r)
		}
		return
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		fatal(err)
	}
	cfg := lint.DefaultConfig(loader.Module)
	if *numeric != "" {
		cfg.NumericPackages = splitList(*numeric)
	}
	if *goallow != "" {
		cfg.GoroutineAllowed = splitList(*goallow)
	}
	if *rules != "" {
		cfg.Rules = splitList(*rules)
		known := make(map[string]bool)
		for _, r := range lint.KnownRules() {
			known[r] = true
		}
		for _, r := range cfg.Rules {
			if !known[r] {
				fatal(fmt.Errorf("unknown rule %q (run -rules=list for the catalog)", r))
			}
		}
	}

	pkgs, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}

	if *graph {
		for _, line := range lint.GraphDump(pkgs, cfg) {
			fmt.Println(line)
		}
		return
	}

	diags := lint.Run(pkgs, cfg)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *github {
				// Workflow-command annotations surface each finding on the
				// PR diff; the message must stay single-line.
				fmt.Printf("::error file=%s,line=%d,col=%d,title=gptlint %s::%s\n",
					d.File, d.Line, d.Col, d.Rule, strings.ReplaceAll(d.Msg, "\n", " "))
			}
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "gptlint: %d problem(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gptlint:", err)
	os.Exit(2)
}
