package serve_test

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/gptune/api"
	"repro/gptune/client"
	"repro/internal/bench"
	"repro/internal/core"
)

// mustScenarioProblem builds the gemm problem the same way the server does,
// giving the client-side objective and the feasibility oracle.
func mustScenarioProblem(t *testing.T) *core.Problem {
	t.Helper()
	sc, err := bench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	prob, err := sc.Problem(nil)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// gemmTasks are native (m, n, k) problem shapes for the constrained "gemm"
// registry scenario.
var gemmTasks = [][]float64{{1024, 1024, 1024}, {4096, 512, 2048}}

// gemmSpec names the scenario instead of describing spaces: the server
// instantiates task/tuning/output spaces — divisibility constraints
// included — from the workload registry.
func gemmSpec(name string, epsTot int, seed int64) api.StudySpec {
	return api.StudySpec{
		Name:     name,
		Scenario: "gemm",
		Tasks:    gemmTasks,
		Options:  api.OptionsSpec{EpsTot: epsTot, Seed: seed, Workers: 1},
	}
}

// feasibleEval evaluates prob's own objective client-side, asserting every
// suggested configuration satisfies the tuning space's constraints — the
// server must never hand out an infeasible point.
func feasibleEval(t *testing.T, prob *core.Problem, tasks [][]float64) func(client.Suggestion) []float64 {
	return func(sg client.Suggestion) []float64 {
		t.Helper()
		if !prob.Tuning.Feasible(sg.X) {
			t.Fatalf("suggestion %v violates the scenario's constraints", sg.X)
		}
		y, err := prob.Objective(tasks[sg.Task], sg.X)
		if err != nil {
			t.Fatalf("objective: %v", err)
		}
		return y
	}
}

// TestServeScenarioParity is the end-to-end acceptance test for server-side
// scenario instantiation: a constrained registry scenario ("gemm", MC%MR==0
// and NC%NR==0) created over HTTP by name must visit bitwise the same
// configurations — all feasible — and record bitwise the same outputs as
// the in-process batch Run on the registry-built problem.
func TestServeScenarioParity(t *testing.T) {
	const epsTot, seed = 8, 11

	prob := mustScenarioProblem(t)
	if len(prob.Tuning.Constraints) == 0 {
		t.Fatal("gemm scenario lost its constraints")
	}
	batch, err := core.Run(prob, gemmTasks, core.Options{EpsTot: epsTot, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c := newTestServer(t).c
	create(t, c, gemmSpec("gemm-parity", epsTot, seed))
	paid := drive(t, c, "gemm-parity", feasibleEval(t, prob, gemmTasks), -1)
	if want := epsTot * len(gemmTasks); paid != want {
		t.Fatalf("paid %d evaluations, want %d", paid, want)
	}

	hist := history(t, c, "gemm-parity")
	for ti := range hist {
		h, b := hist[ti], batch.Tasks[ti]
		if len(h.X) != len(b.X) {
			t.Fatalf("task %d: %d evaluations over HTTP, %d in batch", ti, len(h.X), len(b.X))
		}
		for i := range h.X {
			for d := range h.X[i] {
				if math.Float64bits(h.X[i][d]) != math.Float64bits(b.X[i][d]) {
					t.Errorf("task %d sample %d: X differs: %v vs %v", ti, i, h.X[i], b.X[i])
				}
			}
			if math.Float64bits(h.Y[i][0]) != math.Float64bits(b.Y[i][0]) {
				t.Errorf("task %d sample %d: Y differs: %v vs %v", ti, i, h.Y[i][0], b.Y[i][0])
			}
		}
	}
}

// TestServeScenarioRestartResumes kills a scenario study's server mid-study
// and checks that the restarted server re-resolves the scenario from the
// persisted spec (constraints and all) and resumes bitwise: history matches
// an uninterrupted run, no committed evaluation is re-paid, and post-restart
// suggestions remain feasible.
func TestServeScenarioRestartResumes(t *testing.T) {
	const epsTot, seed, killAfter = 6, 5, 5

	prob := mustScenarioProblem(t)

	rc := newTestServer(t).c
	create(t, rc, gemmSpec("ref", epsTot, seed))
	drive(t, rc, "ref", feasibleEval(t, prob, gemmTasks), -1)
	want := history(t, rc, "ref")

	dir := t.TempDir()
	s1 := startServer(t, dir)
	create(t, s1.c, gemmSpec("crashy", epsTot, seed))
	paid := drive(t, s1.c, "crashy", feasibleEval(t, prob, gemmTasks), killAfter)
	s1.stop(t)

	s2 := startServer(t, dir)
	t.Cleanup(func() { s2.stop(t) })
	paid += drive(t, s2.c, "crashy", feasibleEval(t, prob, gemmTasks), -1)
	if want := epsTot * len(gemmTasks); paid != want {
		t.Fatalf("paid %d evaluations across the restart, want exactly %d", paid, want)
	}
	got := history(t, s2.c, "crashy")
	for ti := range want {
		if len(got[ti].X) != len(want[ti].X) {
			t.Fatalf("task %d: resumed history has %d evaluations, want %d", ti, len(got[ti].X), len(want[ti].X))
		}
		for i := range want[ti].X {
			for d := range want[ti].X[i] {
				if math.Float64bits(got[ti].X[i][d]) != math.Float64bits(want[ti].X[i][d]) {
					t.Fatalf("task %d sample %d: resumed history diverged", ti, i)
				}
			}
			if math.Float64bits(got[ti].Y[i][0]) != math.Float64bits(want[ti].Y[i][0]) {
				t.Fatalf("task %d sample %d: resumed output diverged", ti, i)
			}
		}
	}
}

// TestServeScenarioRejections covers the failure modes of scenario specs:
// unknown names are rejected with the full catalog enumerated, and specs
// that both name a scenario and describe spaces are rejected.
func TestServeScenarioRejections(t *testing.T) {
	c := newTestServer(t).c

	// rejected creates the spec, requires a 400, and returns its message.
	rejected := func(spec api.StudySpec, what string) string {
		t.Helper()
		err := c.Create(ctx, spec)
		wantStatus(t, err, http.StatusBadRequest, what)
		if err == nil {
			t.FailNow()
		}
		return err.Error()
	}

	bad := gemmSpec("ok", 4, 1)
	bad.Scenario = "bogus"
	msg := rejected(bad, "unknown scenario")
	for _, name := range []string{"unknown scenario", "gemm", "analytical"} {
		if !strings.Contains(msg, name) {
			t.Errorf("unknown-scenario error %q does not mention %q", msg, name)
		}
	}

	bad = gemmSpec("ok", 4, 1)
	bad.Tuning = []api.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}}
	if msg = rejected(bad, "scenario+tuning"); !strings.Contains(msg, "drop tuning") {
		t.Errorf("conflicting-spec error %q does not explain the conflict", msg)
	}

	bad = gemmSpec("ok", 4, 1)
	bad.ScenarioParams = map[string]float64{"bogus": 1}
	if msg = rejected(bad, "unknown scenario param"); !strings.Contains(msg, "bogus") {
		t.Errorf("unknown-param error %q does not name the offending key", msg)
	}

	bad = gemmSpec("ok", 4, 1)
	bad.Tasks = [][]float64{{1024, 1024}}
	rejected(bad, "task arity mismatch")
}
