package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/benchmark/stats"
)

// ledgerMetric is one end-to-end metric of one workload over the
// repetitions of a ledger run.
type ledgerMetric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	stats.Summary
	Values []float64 `json:"values"`
}

type ledgerWorkload struct {
	Why           string                  `json:"why"`
	Correct       bool                    `json:"correct"`
	Attempted     int                     `json:"attempted"`
	Failed        int                     `json:"failed"`
	OpsFailedFrac float64                 `json:"ops_failed_frac"`
	Evals         []int                   `json:"evals_per_rep"`
	Hashes        []string                `json:"history_hashes"`
	EndToEnd      map[string]ledgerMetric `json:"end_to_end"`
	PerLayer      map[string]metric       `json:"per_layer,omitempty"`
}

// ledger is the result file of one full run of the benchmark: every
// number next to the environment and the variance it was taken with.
type ledger struct {
	Schema    int                       `json:"schema"`
	Env       environment               `json:"env"`
	Seed      int64                     `json:"seed"`
	Scale     string                    `json:"scale"`
	Seconds   float64                   `json:"seconds"`
	Reps      int                       `json:"reps"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
}

func printOutcome(w io.Writer, name string, o *outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, evaluations %d, history %s\n", name, o.Attempted, o.Failed, o.evals, strings.Join(o.hashes, " "))
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
}

// runLedger runs every named workload reps times with tracing off (same
// seed each time, so histories must hash equal) and, when traced, once more
// with tracing on; it prints every metric with min/median/max and writes
// the ledger file.
func runLedger(ctx context.Context, names []string, seed int64, seconds float64, smoke, traced bool, reps int, outPath string, stdout, stderr io.Writer) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scale := "full"
	if smoke {
		scale = "smoke"
	}
	lg := ledger{Schema: 1, Env: captureEnvironment(root, filepath.Join(root, ".bench_build")), Seed: seed, Scale: scale, Seconds: seconds, Reps: reps, Workloads: map[string]ledgerWorkload{}}
	ok := true
	for _, name := range names {
		w, found := findWorkload(strings.TrimSpace(name))
		if !found {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		lw := ledgerWorkload{Why: w.why, Correct: true, EndToEnd: map[string]ledgerMetric{}}
		values := map[string][]float64{}
		for r := 0; r < reps; r++ {
			out, err := runOnce(ctx, w, "", seed, seconds, smoke, false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			lw.Correct = lw.Correct && out.Correct
			lw.Attempted += out.Attempted
			lw.Failed += out.Failed
			lw.Evals = append(lw.Evals, out.evals)
			if r == 0 {
				lw.Hashes = out.hashes
			} else if strings.Join(lw.Hashes, " ") != strings.Join(out.hashes, " ") {
				fmt.Fprintf(stderr, "%s: INCORRECT: repetition %d history %v differs from repetition 0 %v\n", w.name, r, out.hashes, lw.Hashes)
				lw.Correct = false
			}
			for n, m := range out.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		lw.OpsFailedFrac = float64(lw.Failed) / float64(lw.Attempted)
		fmt.Fprintf(stdout, "%s: correct %v, ops_failed_frac %g (%d of %d), history %s\n", w.name, lw.Correct, lw.OpsFailedFrac, lw.Failed, lw.Attempted, strings.Join(lw.Hashes, " "))
		for _, d := range endToEnd {
			s := stats.Summarize(values[d.Name])
			lw.EndToEnd[d.Name] = ledgerMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Summary: s, Values: values[d.Name]}
			fmt.Fprintf(stdout, "  %-24s median %12.6g %-5s min %12.6g max %12.6g n %d\n", d.Name, s.Median, d.Unit, s.Min, s.Max, s.N)
		}
		if traced {
			out, err := runOnce(ctx, w, "", seed, seconds, smoke, true, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			lw.Correct = lw.Correct && out.Correct
			if strings.Join(lw.Hashes, " ") != strings.Join(out.hashes, " ") {
				fmt.Fprintf(stderr, "%s: INCORRECT: traced history %v differs from timed %v\n", w.name, out.hashes, lw.Hashes)
				lw.Correct = false
			}
			lw.PerLayer = out.Metrics
			for _, d := range perLayer {
				fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
			}
		}
		ok = ok && lw.Correct
		lg.Workloads[w.name] = lw
	}
	if outPath == "" {
		outPath = filepath.Join(root, "benchmark", "out", "ledger.json")
	}
	data, err := json.MarshalIndent(lg, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ledger written to", outPath)
	if !ok {
		return 1
	}
	return 0
}

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const runSeconds = 15

// manifestJSON derives BENCHMARK.json from the workload table and the
// metric catalogue, so the file and the program cannot drift apart.
func manifestJSON() string {
	m := manifestFile{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // strings and floats always marshal
	}
	return strings.TrimSpace(buf.String())
}
