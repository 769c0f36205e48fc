package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/ring"
)

// buildDir is shared by every test that runs a workload, so the child
// binaries are linked once per `go test`, outside the repository.
var buildDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	buildDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runSmoke(t *testing.T, name string, traced bool) *outcome {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns the real server binaries")
	}
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	var log bytes.Buffer
	out, err := runOnce(context.Background(), w, buildDir, 3, 1, true, traced, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	if !out.Correct {
		t.Fatalf("%s failed its correctness gate: %v\n%s", name, out.problems, log.String())
	}
	if out.Attempted < 1 || out.Failed != 0 || out.evals < 1 || len(out.hashes) == 0 {
		t.Errorf("%s: attempted %d failed %d evals %d hashes %v", name, out.Attempted, out.Failed, out.evals, out.hashes)
	}
	return out
}

// Every workload, shrunk, end to end with tracing off: all end-to-end
// metrics present, positive and finite, and the same seed reproduces the
// same tuning history.
func TestSmokeTimed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := runSmoke(t, w.name, false)
			if len(out.Metrics) != len(endToEnd) {
				t.Fatalf("got %d metrics, want %d", len(out.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := out.Metrics[d.Name]
				if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
				}
			}
			again := runSmoke(t, w.name, false)
			if strings.Join(again.hashes, " ") != strings.Join(out.hashes, " ") {
				t.Errorf("same seed, different histories: %v then %v", out.hashes, again.hashes)
			}
			var back map[string]any
			if err := json.Unmarshal([]byte(out.jsonLine()), &back); err != nil || len(back) != 4 {
				t.Errorf("result line %q: %v", out.jsonLine(), err)
			}
		})
	}
}

// The traced run of a library and of a service workload: every per-layer
// metric is emitted, the span file is written, the traced history equals
// the timed one, and (inside the run's own gate) the step-wise drive equals
// gptune.Tune bit for bit.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"tune_warm", "serve_paced"} {
		t.Run(name, func(t *testing.T) {
			timed := runSmoke(t, name, false)
			out := runSmoke(t, name, true)
			if len(out.Metrics) != len(perLayer) {
				t.Fatalf("got %d metrics, want %d", len(out.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := out.Metrics[d.Name]; !ok || math.IsNaN(m.Value) || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if v := out.Metrics["trace.overhead_pct"].Value; !(v > 0 && v < 5) {
				t.Errorf("trace.overhead_pct = %v, want within (0, 5)", v)
			}
			if strings.Join(timed.hashes, " ") != strings.Join(out.hashes, " ") {
				t.Errorf("traced history %v differs from timed %v", out.hashes, timed.hashes)
			}
			root, err := moduleRoot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var f struct {
				Spans  []json.RawMessage `json:"spans"`
				RollUp []json.RawMessage `json:"roll_up"`
			}
			if err := json.Unmarshal(data, &f); err != nil || len(f.Spans) == 0 || len(f.RollUp) == 0 {
				t.Errorf("span file: %v, %d spans, %d roll-up rows", err, len(f.Spans), len(f.RollUp))
			}
		})
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(data)), manifestJSON(); got != want {
		t.Errorf("BENCHMARK.json is out of step with the metric catalogue; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestRealMainArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "tune_cold") {
		t.Errorf("unknown workload: code %d, stderr %q", code, errb.String())
	}
	if code := realMain([]string{"-scale", "huge"}, &out, &errb); code != 2 {
		t.Errorf("bad scale: code %d", code)
	}
	if code := realMain([]string{"-compare", "only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("compare with one file: code %d", code)
	}
	out.Reset()
	if code := realMain([]string{"--manifest"}, &out, io.Discard); code != 0 || !json.Valid(out.Bytes()) {
		t.Errorf("manifest: code %d, output %q", code, out.String())
	}
}

func TestCPUProbeSlowdown(t *testing.T) {
	// 20 samples at full speed, then a phase of 10 at 1.5 × and 10 at full speed.
	var ns []float64
	for i := 0; i < 30; i++ {
		ns = append(ns, 1000)
	}
	for i := 0; i < 10; i++ {
		ns = append(ns, 1500)
	}
	if got := slowdownOf(ns, 20, 40); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("slowdown of a half-slow phase = %v, want 1.25", got)
	}
	if got := slowdownOf(ns, 0, 20); got != 1 {
		t.Errorf("slowdown of a fast phase = %v, want 1", got)
	}
	if got := slowdownOf(ns, 7, 7); got != 1 {
		t.Errorf("slowdown of a phase without samples = %v, want 1", got)
	}
	p := &cpuProbe{}
	from := p.mark()
	p.sample()
	p.sample()
	ph := phase{seconds: 1, from: from, to: p.mark(), cpuShare: 0.5}
	s := p.slowdown(ph)
	if ph.to != 2 || s < 1 || math.Abs(p.correction(ph)-(0.5/s+0.5)) > 1e-12 {
		t.Errorf("phase %+v slowdown %v correction %v", ph, s, p.correction(ph))
	}
	if got := cpuShareOf(3, 2, 2); got != 0.75 {
		t.Errorf("cpu share of 3 CPU seconds over 2 s × 2 drivers = %v", got)
	}
	if got := cpuShareOf(9, 2, 2); got != 1 {
		t.Errorf("cpu share is capped at 1, got %v", got)
	}
}

func TestBatchTracker(t *testing.T) {
	lg := &driveLog{}
	b := lg.newTracker(2, 2) // first batch 4 evaluations, then 2 each
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	for i, m := range []int{10, 20, 30} {
		b.reported(at(m))
		if b.generating() {
			t.Fatalf("generating after %d of 4 reports", i+1)
		}
	}
	b.reported(at(50))
	if !b.generating() {
		t.Fatal("not generating after the batch's last report")
	}
	b.suggestedAt(at(80))
	b.suggestedAt(at(85)) // the second suggestion of a batch closes nothing
	if b.generating() {
		t.Fatal("still generating after a suggestion arrived")
	}
	b.reported(at(100))
	b.reported(at(130))
	b.suggestedAt(at(190))
	wantBarrier := []float64{40, 30, 20, 0, 30, 0}
	wantGen := []float64{30, 60}
	if len(lg.barrierMs) != len(wantBarrier) || len(lg.genMs) != len(wantGen) || lg.evals != 6 {
		t.Fatalf("barrier %v gen %v evals %d", lg.barrierMs, lg.genMs, lg.evals)
	}
	for i := range wantBarrier {
		if lg.barrierMs[i] != wantBarrier[i] {
			t.Errorf("barrier %v, want %v", lg.barrierMs, wantBarrier)
			break
		}
	}
	for i := range wantGen {
		if lg.genMs[i] != wantGen[i] {
			t.Errorf("generation %v, want %v", lg.genMs, wantGen)
			break
		}
	}
}

func TestEvalDurations(t *testing.T) {
	s := pacedSizes{evalMedian: 300 * time.Millisecond, sigma: 0.25, stragglerFrac: 0.1, stragglerMult: 4}
	const n, init, tasks = 24, 6, 3
	var totals [tasks]time.Duration
	slowAt := map[int]int{} // evaluation index → how many evaluators straggle there
	for task := 0; task < tasks; task++ {
		a := evalDurations(n, init, task, tasks, s, rand.New(rand.NewSource(1)))
		b := evalDurations(n, init, task, tasks, s, rand.New(rand.NewSource(2)))
		same, slow := true, 0
		for i := range a {
			totals[task] += a[i]
			same = same && a[i] == b[i]
			if a[i] > time.Second {
				slow++
				slowAt[i]++
				if i < init || b[i] != a[i] {
					t.Errorf("task %d: straggler at %d moves with the seed or sits in the sampling phase", task, i)
				}
			}
		}
		if slow != 2 {
			t.Errorf("task %d: %d stragglers, want 2 of 24", task, slow)
		}
		if same {
			t.Errorf("task %d: different seeds gave the same order", task)
		}
	}
	if totals[0] != totals[1] || totals[1] != totals[2] {
		t.Errorf("evaluators sleep different totals: %v", totals)
	}
	for i, c := range slowAt {
		if c > 1 {
			t.Errorf("%d evaluators straggle in batch %d", c, i)
		}
	}
	if d := evalDurations(8, 2, 0, 3, s, rand.New(rand.NewSource(1))); len(d) != 8 {
		t.Errorf("smoke-sized call returned %d durations", len(d))
	}
}

func TestInDomain(t *testing.T) {
	sc, err := bench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.Problem(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    []float64
		want string
	}{
		{[]float64{64, 64, 64, 4, 4}, ""},
		{[]float64{64, 64, 64, 4}, "coordinates"},
		{[]float64{64, 64, 64, 4, 7}, "outside"},
		{[]float64{64.5, 64, 64, 4, 4}, "not whole"},
		{[]float64{math.NaN(), 64, 64, 4, 4}, "non-finite"},
		{[]float64{66, 64, 64, 4, 4}, "constraint"}, // 66 % 4 != 0
	}
	for _, c := range cases {
		got := inDomain(prob.Tuning, c.x)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("inDomain(%v) = %q, want it to mention %q", c.x, got, c.want)
		}
	}
}

func TestBalancedNames(t *testing.T) {
	r := ring.New("http://127.0.0.1:7001", "http://127.0.0.1:7002")
	names := balancedNames(r, "p", 8)
	owned := map[string]int{}
	for _, n := range names {
		o, _ := r.Owner(n)
		owned[o]++
	}
	if len(names) != 8 || len(owned) != 2 {
		t.Fatalf("names %v owned %v", names, owned)
	}
	for o, n := range owned {
		if n != 4 {
			t.Errorf("%s owns %d of 8", o, n)
		}
	}
}

func TestQualityAndHistory(t *testing.T) {
	var q quality
	q.addTask([][]float64{{2}, {1.2}, {1.04}, {1.5}, {1.01}}, 1)
	q.addTask([][]float64{{3}, {2.5}}, 2)
	if q.evalsTo5[0] != 3 || q.evalsTo5[1] != 3 { // the second never gets there: budget + 1
		t.Errorf("evalsTo5 = %v", q.evalsTo5)
	}
	if math.Abs(q.regret[0]-1) > 1e-9 || math.Abs(q.regret[1]-25) > 1e-9 || math.Abs(q.maxRegret()-25) > 1e-9 {
		t.Errorf("regret = %v", q.regret)
	}

	h1, h2 := newHistory(1), newHistory(1)
	h1.add(0, []float64{0.1, 2}, []float64{3})
	h2.add(0, []float64{0.1, 2}, []float64{3})
	if h1.hash() != h2.hash() || !sameBits(h1.X, h2.X) || h1.evals() != 1 {
		t.Error("equal histories compare unequal")
	}
	h2.X[0][0][0] = math.Nextafter(0.1, 1)
	if h1.hash() == h2.hash() || sameBits(h1.X, h2.X) {
		t.Error("a one-ulp difference went unnoticed")
	}

	st := &tuneStudy{}
	st.opts.EpsTot = 4
	all := [][]float64{{1}, {2}, {90}, {91}, {92}, {3}, {4}} // 2 init, 3 prior, 2 search
	got := paidEvals(all, st, 4)
	if len(got) != 4 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 || got[3][0] != 4 {
		t.Errorf("paidEvals = %v", got)
	}
}
