// Package parity_test pins the histories the tuner writes as committed data.
// Each row of the corpus is one run down cmd/gptune's path — a registry
// scenario, δ tasks drawn by gptune.SampleTasks, core.Run with LogY — whose
// checkpoint deliveries and archived model snapshots are hashed at
// math.Float64bits, and testdata/histories.golden holds every row's hashes.
// A change that keeps every history bit keeps the file; one that moves a bit
// on purpose re-records it with
//
//	go test ./internal/parity -update
//
// and says why in a Histories-Move: trailer (DESIGN.md §8). Beside it,
// testdata/serve_smoke.golden holds the history hashes that `go run
// ./benchmark -workload serve_closed|serve_paced -scale smoke` print, which
// CI compares under every build; those workloads run only as processes.
package parity_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/gptune"
	"repro/internal/bench"
	_ "repro/internal/bench/all" // registers every scenario the rows name
	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/surrogate"
)

var update = flag.Bool("update", false, "rewrite testdata/histories.golden from the current build's runs")

// run is one corpus row: cmd/gptune's flags, plus the engine seed, fit
// budget and loaded prior of the benchmark's library workloads, whose
// tasks come from a seed of their own.
type run struct {
	name       string
	app        string
	delta, eps int
	taskSeed   int64 // gptune.SampleTasks seed
	seed       int64 // Options.Seed
	workers    int
	logY       bool // cmd/gptune's runs model log-runtimes; the benchmark's raw ones
	surrogate  string
	refitEvery int
	tuner      string // a rival tuner in place of MLA, run per task i with seed+i
	// The benchmark's workloads only.
	numStarts, modelMaxIter int
	priorPerTask            int // prior points per task, evaluated before the run
}

// cli is cmd/gptune -app app -delta delta -eps eps -seed seed -workers 2.
func cli(name, app string, delta, eps int, seed int64) run {
	return run{name: name, app: app, delta: delta, eps: eps, taskSeed: seed, seed: seed, workers: 2, logY: true}
}

// corpus is every row, in golden order.
func corpus() []run {
	w1 := cli("gemm-w1", "gemm", 3, 60, 7) // n past the Cholesky block
	w1.workers = 1
	w4 := cli("gemm-w4", "gemm", 3, 60, 7)
	w4.workers = 4
	rows := []run{w1, w4, cli("recsys", "recsys", 2, 30, 9)}
	for _, k := range []string{surrogate.KindGPIndep, surrogate.KindSGP, surrogate.KindRF} {
		r := cli("gemm-"+k, "gemm", 2, 24, 3)
		r.surrogate = k
		rows = append(rows, r)
	}
	r3 := cli("gemm-refit3", "gemm", 2, 30, 4)
	r3.refitEvery = 3
	sgp3 := r3
	sgp3.name, sgp3.surrogate = "gemm-sgp-refit3", surrogate.KindSGP
	rows = append(rows, r3, sgp3, cli("superlu-mo", "superlu-mo", 2, 12, 3)) // NSGA-II
	// Constrained spaces, then every other registry scenario.
	for _, a := range []string{"qr", "hypre", "superlu", "analytical", "compiler-flags", "eigen", "m3dc1", "nimrod"} {
		rows = append(rows, cli(a, a, 2, 12, 5))
	}
	// cmd/gptune -tuner: one run per task of every rival.
	for _, tn := range gptune.TunerNames() {
		r := cli("gemm-"+tn, "gemm", 2, 24, 3)
		r.tuner = tn
		rows = append(rows, r)
	}
	// The benchmark's tune_cold and tune_warm at -scale smoke, seed 1: the
	// first unit's studies (engine seed 1000), scenario k's tasks drawn with
	// seed 1+k.
	for k, app := range []string{"gemm", "recsys"} {
		rows = append(rows, run{name: "tune_cold-" + app, app: app, delta: 3, eps: 10, taskSeed: 1 + int64(k), seed: 1000, workers: 2})
	}
	return append(rows, run{
		name: "tune_warm-recsys", app: "recsys", delta: 2, eps: 8, taskSeed: 1, seed: 1000, workers: 2,
		numStarts: 2, modelMaxIter: 15, refitEvery: 1000, priorPerTask: 40,
	})
}

// hashCheckpoint is an in-memory checkpoint that keeps what a WAL-backed
// one would persist: every evaluation in delivery order, and every archived
// model as the hyperparameters surrogate.WarmStart decodes from it — what a
// later session reads back. It holds no log, so Lookup never replays.
type hashCheckpoint struct {
	mu     sync.Mutex
	evals  []core.CheckpointRecord
	models []model
}

type model struct {
	kind      string
	objective int
	warm      [][]float64
}

func (c *hashCheckpoint) Eval(r core.CheckpointRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evals = append(c.evals, r)
	return nil
}

func (c *hashCheckpoint) Lookup(_, _ []float64) (x, y []float64, ok bool) { return nil, nil, false }

func (c *hashCheckpoint) SaveModel(s core.ModelSnapshot) error {
	warm, err := surrogate.WarmStart(s.Kind, s.Data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models = append(c.models, model{s.Kind, s.Objective, warm})
	return nil
}

// hashes returns the FNV-64a hashes of the evaluations and of the models,
// every value at math.Float64bits.
func (c *hashCheckpoint) hashes() (evals, models uint64) {
	he, hm := fnv.New64a(), fnv.New64a()
	for _, r := range c.evals {
		writeString(he, r.Phase)
		for _, v := range [][]float64{r.Task, r.Requested, r.X, r.Y} {
			writeFloats(he, v)
		}
	}
	for _, m := range c.models {
		writeString(hm, m.kind)
		writeFloats(hm, []float64{float64(m.objective)})
		for _, v := range m.warm {
			writeFloats(hm, v)
		}
	}
	return he.Sum64(), hm.Sum64()
}

// smokeHash is the benchmark's history hash of one study (benchmark/
// drivelog.go): per task in order, its evaluation count, then every
// evaluation's configuration and outputs, SHA-256 cut to 8 bytes.
func (c *hashCheckpoint) smokeHash(tasks [][]float64) string {
	d := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	for _, task := range tasks {
		var mine []core.CheckpointRecord
		for _, r := range c.evals {
			if slices.Equal(r.Task, task) {
				mine = append(mine, r)
			}
		}
		put(uint64(len(mine)))
		for _, r := range mine {
			for _, v := range append(slices.Clone(r.X), r.Y...) {
				put(math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}

// writeFloats hashes a length-prefixed vector at math.Float64bits.
func writeFloats(h hash.Hash, v []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
	h.Write(b[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func writeString(h hash.Hash, s string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	h.Write(b[:])
	h.Write([]byte(s))
}

// line runs one row and returns its golden line.
func (r run) line(t *testing.T) string {
	sc, err := bench.Get(r.app)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.Problem(nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := gptune.SampleTasks(p, r.delta, r.taskSeed)
	if err != nil {
		t.Fatal(err)
	}
	cp := &hashCheckpoint{}
	if r.tuner == "" {
		opts := core.Options{
			EpsTot: r.eps, Seed: r.seed, Workers: r.workers, LogY: r.logY,
			Surrogate: r.surrogate, RefitEvery: r.refitEvery,
			NumStarts: r.numStarts, ModelMaxIter: r.modelMaxIter,
			Prior: prior(t, p, tasks, r.priorPerTask), Checkpoint: cp,
		}
		if _, err := core.Run(p, tasks, opts); err != nil {
			t.Fatal(err)
		}
		if want := r.delta * r.eps; len(cp.evals) != want {
			t.Fatalf("checkpoint received %d evaluations, want %d", len(cp.evals), want)
		}
	} else {
		tn, err := gptune.NewTuner(r.tuner)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			tr, err := tn.Tune(p, task, r.eps, r.seed+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			for j, x := range tr.X {
				cp.evals = append(cp.evals, core.CheckpointRecord{Phase: r.tuner, Task: task, Requested: x, X: x, Y: tr.Y[j]})
			}
		}
	}
	he, hm := cp.hashes()
	line := fmt.Sprintf("%s evals %d %016x models %d %016x", r.name, len(cp.evals), he, len(cp.models), hm)
	if !r.logY {
		line += " smoke " + cp.smokeHash(tasks)
	}
	return line
}

// prior evaluates n feasible points per task, drawn as the benchmark's
// tune_warm draws them at seed 1, into prior samples in task order.
func prior(t *testing.T, p *core.Problem, tasks [][]float64, n int) []core.PriorSample {
	if n == 0 {
		return nil
	}
	var out []core.PriorSample
	for i, task := range tasks {
		xs, err := sample.FeasibleLHS(p.Tuning, n, rand.New(rand.NewSource(31+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			y, err := p.Objective(task, x)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, core.PriorSample{Task: task, X: x, Y: y})
		}
	}
	return out
}

// TestHistories runs the corpus and compares every row with its golden
// line; a -run pattern may pick rows, but -update rewrites the whole file.
func TestHistories(t *testing.T) {
	path := filepath.Join("testdata", "histories.golden")
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	rows := corpus()
	var got []string
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			line := r.line(t)
			got = append(got, line)
			if !*update && line != want[r.name] {
				t.Errorf("history moved:\n got: %s\nwant: %s", line, want[r.name])
			}
		})
	}
	switch {
	case *update && len(got) != len(rows):
		t.Fatalf("-update rewrites every row, and %d of %d ran", len(got), len(rows))
	case *update:
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	case len(got) == len(rows) && len(want) != len(rows):
		t.Errorf("%s has %d rows, the corpus %d", path, len(want), len(rows))
	}
}
