package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/histdb"
	"repro/internal/space"
	"repro/internal/surrogate"
)

func TestNewCheckpointRefusesExistingRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 4, Seed: 1, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if _, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"}); err == nil {
		t.Fatal("NewCheckpoint overwrote an existing log")
	}
	// Resume of a *completed* run replays everything and pays nothing;
	// covered exhaustively by TestCrashResumeReproducesRunBitwise (k=total).
}

func TestResumeRejectsWrongProblem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 4, Seed: 1, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if _, err := Resume(path, CheckpointOptions{Problem: "other"}); err == nil {
		t.Fatal("Resume accepted a log from a different problem")
	}
}

// A resumed run with a different seed walks a different trajectory; the
// replay verifier must detect the divergence instead of silently growing a
// log that no longer matches any single run.
func TestResumeDivergenceDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 6, Seed: 1, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	rcp, err := Resume(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	defer rcp.Close()
	_, err = Run(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 6, Seed: 999, Checkpoint: rcp})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent resume not detected: %v", err)
	}
}

// A log is the canonical job order cut at some point, so one whose first two
// records (both of the initial batch) are swapped is no run's log: the resume
// must refuse it rather than match each record wherever it lies.
func TestResumeRefusesSwappedRecords(t *testing.T) {
	path, tasks := filepath.Join(t.TempDir(), "ckpt.json"), [][]float64{{0}, {1.5}}
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(analyticalProblem(), tasks, Options{EpsTot: 6, Seed: 1, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	log, err := os.ReadFile(histdb.WalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n")) // a header, then a record a line
	lines[1], lines[2] = lines[2], lines[1]
	if err := os.WriteFile(histdb.WalPath(path), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	rcp, err := Resume(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	defer rcp.Close()
	_, err = Run(analyticalProblem(), tasks, Options{EpsTot: 6, Seed: 1, Checkpoint: rcp})
	if err == nil || !strings.Contains(err.Error(), "resume diverged") {
		t.Fatalf("swapped log resumed: %v", err)
	}
}

// A checkpoint's log, read back with histdb.Load, yields Options.Prior-style
// samples for warm-starting a different run from its data (the conversion
// the facade's PriorFromHistory performs).
func TestCheckpointPrior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(analyticalProblem(), [][]float64{{0}}, Options{EpsTot: 4, Seed: 1, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	db, err := histdb.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var prior []PriorSample
	for _, r := range db.Query("analytical", []float64{0}) {
		if r.IsEval() && len(r.Outputs) > 0 {
			prior = append(prior, PriorSample{Task: r.Task, X: r.Config, Y: r.Outputs})
		}
	}
	if len(prior) != len(res.Tasks[0].X) {
		t.Fatalf("Prior has %d samples, run produced %d", len(prior), len(res.Tasks[0].X))
	}
	for i, ps := range prior {
		if math.Float64bits(ps.X[0]) != math.Float64bits(res.Tasks[0].X[i][0]) ||
			math.Float64bits(ps.Y[0]) != math.Float64bits(res.Tasks[0].Y[i][0]) {
			t.Fatalf("prior sample %d does not match history: %+v", i, ps)
		}
	}
}

// recordingCheckpoint keeps records in memory (order matters).
type recordingCheckpoint struct{ recs []CheckpointRecord }

func (rc *recordingCheckpoint) Eval(rec CheckpointRecord) error {
	rc.recs = append(rc.recs, rec)
	return nil
}
func (rc *recordingCheckpoint) Lookup(task, requested []float64) ([]float64, []float64, bool) {
	return nil, nil, false
}

// Every evaluation of a run must be streamed to the hook, tagged with its
// phase, including multi-objective iterations.
func TestCheckpointStreamsEveryPhase(t *testing.T) {
	rc := &recordingCheckpoint{}
	res, err := Run(analyticalProblem(), [][]float64{{0}, {2}}, Options{EpsTot: 6, Seed: 3, Workers: 4, Checkpoint: rc})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 0
	for _, tr := range res.Tasks {
		wantTotal += len(tr.X)
	}
	if len(rc.recs) != wantTotal {
		t.Fatalf("hook saw %d evaluations, run produced %d", len(rc.recs), wantTotal)
	}
	phases := map[string]int{}
	for _, r := range rc.recs {
		phases[r.Phase]++
		if len(r.Task) != 1 || len(r.X) != 1 || len(r.Y) != 1 || len(r.Requested) != 1 {
			t.Fatalf("malformed record: %+v", r)
		}
	}
	if phases["init"] == 0 || phases["search"] == 0 || phases["init"]+phases["search"] != wantTotal {
		t.Fatalf("phase breakdown wrong: %v", phases)
	}

	mo := &recordingCheckpoint{}
	p := &Problem{
		Name:    "mo",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("f1", "f2"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{x[0], 1 - x[0]}, nil
		},
	}
	if _, err := Run(p, [][]float64{{0}}, Options{EpsTot: 6, Seed: 4, Checkpoint: mo}); err != nil {
		t.Fatal(err)
	}
	moPhases := map[string]int{}
	for _, r := range mo.recs {
		moPhases[r.Phase]++
	}
	if moPhases["mo"] == 0 {
		t.Fatalf("multi-objective iterations not tagged: %v", moPhases)
	}
}

// Satellite regression: searchOne used to append the per-task incumbent
// seed in place to the caller-shared Options.Search.Seeds backing array.
// With spare capacity and concurrent tasks this was a data race (caught by
// -race) and bled one task's incumbent into another's swarm. The slice —
// including its spare capacity — must come back untouched.
func TestSearchSeedsNotMutatedAcrossTasks(t *testing.T) {
	seeds := make([][]float64, 1, 8) // spare capacity is the trap
	seeds[0] = []float64{0.5}
	opts := Options{EpsTot: 8, Seed: 7, Workers: 4}
	opts.Search.Seeds = seeds
	if _, err := Run(analyticalProblem(), [][]float64{{0}, {1}, {2}, {3}}, opts); err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 || seeds[0][0] != 0.5 {
		t.Fatalf("caller's Seeds mutated: %v", seeds)
	}
	if spare := seeds[:2]; spare[1] != nil {
		t.Fatalf("run wrote into the caller's spare capacity: %v", spare[1])
	}
}

// A wrong-length Options.Search.Seeds entry used to reach the acquisition and
// panic in DenormalizeInto ("space: point has 1 values, space has 2
// parameters") on the engine's generation goroutine, where no caller can
// recover it; a NaN coordinate rode through clip01 into the model. NewEngine
// now refuses both as errors. The check only looks: a well-formed seed is
// still accepted, and a run that passes none is the run it was (nil and empty
// Seeds give one history; the golden and parity tests pin it to the parent's).
func TestSearchSeedsValidated(t *testing.T) {
	p := analyticalProblem()
	p.Tuning = space.MustNew(space.NewReal("x", 0, 1), space.NewReal("unused", 0, 1))
	tasks := [][]float64{{0}, {1}}
	opts := func(seeds [][]float64) Options {
		o := Options{EpsTot: 6, Seed: 3, Workers: 2}
		o.Search.Seeds = seeds
		return o
	}
	for _, bad := range []struct {
		name  string
		seeds [][]float64
	}{
		{"short", [][]float64{{0.5}}},
		{"long", [][]float64{{0.2, 0.4}, {0.1, 0.2, 0.3}}},
		{"empty entry", [][]float64{{}}},
		{"NaN", [][]float64{{0.5, math.NaN()}}},
		{"Inf", [][]float64{{math.Inf(-1), 0.5}}},
	} {
		if _, err := NewEngine(p, tasks, opts(bad.seeds)); err == nil || !strings.Contains(err.Error(), "Search.Seeds") {
			t.Errorf("%s seed: NewEngine error = %v, want one naming Search.Seeds", bad.name, err)
		}
		if _, err := Run(p, tasks, opts(bad.seeds)); err == nil {
			t.Errorf("%s seed: Run returned no error", bad.name)
		}
	}

	none, err := Run(p, tasks, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Run(p, tasks, opts([][]float64{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(none.Tasks, empty.Tasks) {
		t.Fatal("an empty Seeds list changed the history of a run that passes none")
	}
	seeded, err := Run(p, tasks, opts([][]float64{{0.25, 0.75}}))
	if err != nil {
		t.Fatalf("well-formed seed rejected: %v", err)
	}
	for i, tr := range seeded.Tasks {
		if len(tr.X) != len(none.Tasks[i].X) {
			t.Fatalf("task %d: seeded run committed %d evaluations, unseeded %d", i, len(tr.X), len(none.Tasks[i].X))
		}
	}
}

// Satellite regression: the initial-sampling retry RNG was seeded per task
// only, so two failing configurations of one task drew the same replacement
// point. With the job index in the hash, every retry draws a distinct one.
func TestRetryDrawsDistinctWithinTask(t *testing.T) {
	p := analyticalProblem()
	inner := p.Objective
	calls := 0
	const epsTot = 8 // init phase: 4 jobs, all for the single task
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		// Workers=1 runs jobs in order: odd-numbered calls during the init
		// phase are first attempts and fail; the retry (even call) succeeds.
		if calls <= epsTot && calls%2 == 1 {
			return nil, errors.New("flaky")
		}
		return inner(task, x)
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: epsTot, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	initX := res.Tasks[0].X[:epsTot/2] // the init-phase samples, all retries
	for i := range initX {
		for j := i + 1; j < len(initX); j++ {
			if math.Float64bits(initX[i][0]) == math.Float64bits(initX[j][0]) {
				t.Fatalf("retry draws collided: jobs %d and %d both got %v (task-only retry seed)", i, j, initX[i][0])
			}
		}
	}
}

// paddedCheckpoint is a Checkpointer that logs a fresh megabyte-sized blob in
// place of every real model snapshot, so a short run puts far more bytes in
// its log than the process can hide in noise.
type paddedCheckpoint struct{ *Checkpointer }

func (p paddedCheckpoint) SaveModel(s ModelSnapshot) error {
	s.Data = make([]byte, 1<<20)
	return p.Checkpointer.SaveModel(s)
}

// heapAfterGC is the live heap once two collections have settled it.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCheckpointerRetainsNoHistory: the log lives on disk and the history in
// the engine; a Checkpointer between them must pin neither. A run logs over
// 8 MiB of model snapshots and a few hundred evaluations through an open
// Checkpointer, then a second Checkpointer resumes that log and an engine
// replays it to the end; each time, with the run's own result dropped, the
// heap the Checkpointer keeps alive must stay under an eighth of the bytes
// logged — and the replay cursor must be gone once the last record verified.
// The snapshots come from gp-indep, a backend that archives them, on a fit
// budget small enough to keep the run short.
func TestCheckpointerRetainsNoHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	tasks := [][]float64{{0}, {1}, {2}, {3}}
	opts := func(cp *Checkpointer) Options {
		// 72 initial + 8 search evaluations per task: 8 generations, each
		// logging one padded snapshot.
		return Options{EpsTot: 80, InitFraction: 0.9, Seed: 5, Surrogate: surrogate.KindGPIndep, NumStarts: 1, ModelMaxIter: 5, Checkpoint: paddedCheckpoint{cp}}
	}
	retained := func(what string, open func(string, CheckpointOptions) (*Checkpointer, error), behind bool) {
		t.Helper()
		before := heapAfterGC()
		cp, err := open(path, CheckpointOptions{Problem: "analytical"})
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		if cp.Replaying() != behind {
			t.Fatalf("%s: Replaying() = %v at open, want %v", what, !behind, behind)
		}
		if _, err := Run(analyticalProblem(), tasks, opts(cp)); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := heapAfterGC()
		st, err := os.Stat(histdb.WalPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if cp.Logged() != 80*len(tasks) || st.Size() < 8<<20 {
			t.Fatalf("%s: logged %d evaluations in %d bytes, want %d in over 8 MiB", what, cp.Logged(), st.Size(), 80*len(tasks))
		}
		if cp.Replaying() || cap(cp.replay) != 0 {
			t.Fatalf("%s: replay cursor still held after the last logged record verified", what)
		}
		if grew := int64(after) - int64(before); grew > st.Size()/8 {
			t.Fatalf("%s: %d bytes logged, %d bytes of heap still live behind the open Checkpointer (limit: an eighth)", what, st.Size(), grew)
		}
		runtime.KeepAlive(cp)
	}
	retained("logging", NewCheckpoint, false)
	retained("resume and replay", Resume, true)
}
