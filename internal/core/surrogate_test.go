package core

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/histdb"
	"repro/internal/surrogate"
)

// TestSurrogateBackendParitySingleTask is the cross-backend parity contract
// (run explicitly in CI): with a single task and a single objective there is
// no cross-task structure for the LCM to exploit, so the "lcm" and
// "gp-indep" backends must produce bitwise-identical tuning histories — the
// independent-GP backend hands task 0 exactly the same seed, the same
// (clamped) Q, and therefore the same optimizer trajectory.
func TestSurrogateBackendParitySingleTask(t *testing.T) {
	run := func(kind string) *Result {
		res, err := Run(analyticalProblem(), [][]float64{{1.5}}, Options{
			EpsTot:    10,
			Seed:      42,
			Workers:   4,
			Surrogate: kind,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return res
	}
	requireBitwiseEqualHistories(t, "lcm vs gp-indep", run(surrogate.KindLCM), run(surrogate.KindGPIndep))
}

// TestSurrogateBackendsDeterministicAcrossWorkers extends the worker-count
// determinism contract to every backend selectable through Options.Surrogate.
func TestSurrogateBackendsDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range surrogate.Kinds() {
		run := func(workers int) *Result {
			res, err := Run(analyticalProblem(), [][]float64{{0}, {3}}, Options{
				EpsTot:    8,
				Seed:      7,
				Workers:   workers,
				Surrogate: kind,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			return res
		}
		requireBitwiseEqualHistories(t, kind+" workers 1 vs 8", run(1), run(8))
	}
}

// TestUnknownSurrogateRejected: selection errors surface at engine
// construction, before any evaluation is spent.
func TestUnknownSurrogateRejected(t *testing.T) {
	_, err := NewEngine(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 4, Surrogate: "kriging"})
	if err == nil {
		t.Fatal("unknown surrogate accepted")
	}
}

// TestModelSnapshotTransferThroughWAL is the end-to-end transfer contract:
// a run whose Options.Checkpoint is a Checkpointer appends fitted-model
// snapshots to its WAL; a later session loads them back and uses them as the
// modeling phase's hyperparameter warm start, changing (and still
// determinizing) its tuning trajectory.
func TestModelSnapshotTransferThroughWAL(t *testing.T) {
	tasks := [][]float64{{1.5}}
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")

	// Session 1: tune with the WAL as the checkpoint.
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(analyticalProblem(), tasks, opts1func(cp)); err != nil {
		t.Fatal(err)
	}
	logged := cp.Logged()
	if logged != 8 {
		t.Fatalf("Logged() = %d evaluations, want 8 (model records must not count)", logged)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// The log must still verify, and reopening it must surface the
	// snapshots: EpsTot 8 → 4 init + 4 search generations → 4 model records.
	if _, verr := histdb.Verify(path); verr != nil {
		t.Fatalf("verify: %v", verr)
	}
	rcp, err := Resume(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	db, err := histdb.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []ModelSnapshot
	for _, r := range db.Records() {
		if r.Kind == histdb.KindModel {
			snaps = append(snaps, ModelSnapshot{Kind: r.Surrogate, Objective: r.Objective, Data: r.Snapshot})
		}
	}
	if len(snaps) != 4 {
		t.Fatalf("got %d model snapshots, want 4 (one per search generation)", len(snaps))
	}
	for _, s := range snaps {
		if s.Kind != surrogate.KindLCM || s.Objective != 0 || len(s.Data) == 0 {
			t.Fatalf("bad snapshot: kind=%q objective=%d len=%d", s.Kind, s.Objective, len(s.Data))
		}
	}

	// The resumed session must replay bitwise even though model records sit
	// between the logged evaluations (they are filtered from replay, and the
	// re-fitted models are re-saved without disturbing Eval verification).
	var baseCalls int64
	baseline, err := Run(countingProblem(&baseCalls), tasks, opts1func(nil))
	if err != nil {
		t.Fatal(err)
	}
	var resumedCalls int64
	resumed, err := Run(countingProblem(&resumedCalls), tasks, opts1func(rcp))
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	requireBitwiseEqualHistories(t, "resume with model records", baseline, resumed)
	if resumedCalls != 0 {
		t.Fatalf("resumed run re-paid %d objective calls", resumedCalls)
	}
	if got := rcp.Logged(); got != 8 {
		t.Fatalf("resumed Logged() = %d, want 8", got)
	}
	if err := rcp.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2 (fresh seed, no checkpoint): the last snapshot warm-starts
	// every modeling-phase fit. The warm-started session must be
	// deterministic, and must actually diverge from the cold session — the
	// seeded L-BFGS start lands the surrogate elsewhere, moving the search.
	warmStart := []ModelSnapshot{snaps[len(snaps)-1]}
	session2 := func(warm []ModelSnapshot) *Result {
		res, err := Run(analyticalProblem(), tasks, Options{
			EpsTot: 8, Seed: 1, Workers: 2,
			NumStarts: 1, ModelMaxIter: 3,
			WarmStart: warm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := session2(nil)
	warm := session2(warmStart)
	warm2 := session2(warmStart)
	requireBitwiseEqualHistories(t, "warm-started session repeatability", warm, warm2)
	// Transfer is best-effort: a snapshot that does not restore is a cold
	// start, not an error.
	corrupt := session2([]ModelSnapshot{{Kind: surrogate.KindLCM, Data: []byte("not a snapshot")}})
	requireBitwiseEqualHistories(t, "undecodable warm start vs cold start", cold, corrupt)
	diverged := false
	for i := range warm.Tasks[0].X {
		for d := range warm.Tasks[0].X[i] {
			if math.Float64bits(warm.Tasks[0].X[i][d]) != math.Float64bits(cold.Tasks[0].X[i][d]) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("warm start had no effect on the tuning trajectory")
	}
}

// opts1func rebuilds session 1's options with a given checkpoint (the
// Options literal must match session 1's exactly for bitwise replay).
func opts1func(cp Checkpoint) Options {
	return Options{EpsTot: 8, Seed: 42, Workers: 2, Checkpoint: cp}
}
