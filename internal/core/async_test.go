package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/surrogate"
)

// driveEngine pumps an engine to completion ask/tell style, evaluating the
// analytical objective caller-side and polling through ErrNonePending the
// way a serve-layer client honors a 409's Retry-After.
func driveEngine(t *testing.T, eng *Engine, tasks [][]float64) {
	t.Helper()
	for {
		sg, err := eng.Suggest(-1)
		switch {
		case errors.Is(err, ErrDone):
			return
		case errors.Is(err, ErrNonePending):
			time.Sleep(time.Millisecond)
			continue
		case err != nil:
			t.Fatalf("suggest: %v", err)
		}
		y := paperObjective(tasks[sg.Task][0], sg.X[0])
		if err := eng.Observe(sg.ID, []float64{y}); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
}

// TestAsyncMatchesSyncBitwise is the async mode's determinism acceptance
// test: moving batch generation to a background goroutine must change
// blocking behavior only. The tuning history AND the write-ahead log must be
// bitwise identical to the synchronous engine's — byte-for-byte WAL equality
// means every eval record and every model snapshot committed in the same
// canonical order, so the PR 3 replay path resumes async studies unchanged.
func TestAsyncMatchesSyncBitwise(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}, {3}}
	clock := func() time.Time { return time.Unix(1700000000, 0).UTC() }
	run := func(async bool) (*Result, []byte) {
		path := filepath.Join(t.TempDir(), "wal.json")
		cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical", Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(analyticalProblem(), tasks, Options{
			EpsTot: 8, Seed: 42, Workers: 2, Async: async,
			Checkpoint: cp, Transfer: cp, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, eng, tasks)
		eng.Quiesce()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		res := eng.Result()
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path + ".wal") // histdb.WAL's live log file
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	syncRes, syncWAL := run(false)
	asyncRes, asyncWAL := run(true)
	requireBitwiseEqualHistories(t, "async vs sync", syncRes, asyncRes)
	if !bytes.Equal(syncWAL, asyncWAL) {
		t.Errorf("WAL bytes differ: sync %d bytes, async %d bytes", len(syncWAL), len(asyncWAL))
	}
}

// An ask/tell caller evaluates on its own side whether or not the problem it
// handed NewEngine carries an Objective (the facade's NewEngine and the
// benchmark replay both leave it set): every Observe is one evaluation.
func TestAskTellCountsEvals(t *testing.T) {
	tasks := [][]float64{{0}, {2}}
	for _, keepObjective := range []bool{true, false} {
		p := analyticalProblem()
		if !keepObjective {
			p.Objective = nil
		}
		eng, err := NewEngine(p, tasks, Options{EpsTot: 6, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, eng, tasks)
		if got, want := eng.Result().Stats.NumEvals, 6*len(tasks); got != want {
			t.Errorf("objective on problem = %v: NumEvals = %d, want %d", keepObjective, got, want)
		}
	}
}

// slowFitter wraps a real backend, delaying every fit so tests can observe
// the engine while a modeling phase is verifiably in flight.
type slowFitter struct {
	inner surrogate.Fitter
	delay time.Duration
}

func (f slowFitter) Kind() string { return f.inner.Kind() }
func (f slowFitter) Fit(data *surrogate.Dataset, opts surrogate.FitOptions) (surrogate.Model, error) {
	time.Sleep(f.delay)
	return f.inner.Fit(data, opts)
}
func (f slowFitter) UnmarshalBinary(data []byte) (surrogate.Model, error) {
	return f.inner.UnmarshalBinary(data)
}

// TestAsyncSuggestLatencyUnderModeling pins the tentpole property: with
// Options.Async, Suggest never blocks on a surrogate fit. The fitter is
// slowed to hundreds of milliseconds; every Suggest issued while that fit is
// in flight must return ErrNonePending within single-digit milliseconds —
// it takes only the batch-bookkeeping mutex, which the background generator
// never holds across modeling.
func TestAsyncSuggestLatencyUnderModeling(t *testing.T) {
	const fitDelay = 400 * time.Millisecond
	inner, err := surrogate.New("")
	if err != nil {
		t.Fatal(err)
	}
	tasks := [][]float64{{0}, {1.5}}
	eng, err := NewEngine(analyticalProblem(), tasks, Options{
		EpsTot: 4, Seed: 7, Workers: 1, Async: true,
		fitterOverride: slowFitter{inner: inner, delay: fitDelay},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the init batch (sampling only — the slow fitter is not involved
	// yet). The Observe that commits its last job kicks the background
	// modeling fit; the first ErrNonePending after that is our cue that the
	// slow fit is in flight.
	observed := 0
	for {
		sg, err := eng.Suggest(-1)
		if errors.Is(err, ErrNonePending) {
			if observed > 0 {
				break
			}
			time.Sleep(time.Millisecond) // init batch still sampling
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		y := paperObjective(tasks[sg.Task][0], sg.X[0])
		if err := eng.Observe(sg.ID, []float64{y}); err != nil {
			t.Fatal(err)
		}
		observed++
	}

	// Probe for half the fit's duration: the fit cannot have finished, so
	// every probe must come back ErrNonePending — and fast.
	probes := 0
	deadline := time.Now().Add(fitDelay / 2)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		_, err := eng.Suggest(-1)
		elapsed := time.Since(t0)
		if !errors.Is(err, ErrNonePending) {
			t.Fatalf("suggest during in-flight fit: %v", err)
		}
		if elapsed > 10*time.Millisecond {
			t.Errorf("suggest took %v during an in-flight fit, want <10ms", elapsed)
		}
		probes++
		time.Sleep(5 * time.Millisecond)
	}
	if probes == 0 {
		t.Fatal("no latency probes ran")
	}

	// Finish the study so the background generator is joined before the test
	// returns.
	driveEngine(t, eng, tasks)
	eng.Quiesce()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFailRetryStreamDraws pins the retry stream's exact consumption: the
// n-th failed attempt substitutes the n-th draw from the job's dedicated
// retry RNG, and the third (terminal) attempt draws nothing — the dead job
// keeps the configuration its last attempt actually ran. The old code drew
// and overwrote j.x before the terminal check, so the terminal report both
// burned a third draw and misrecorded what had been evaluated.
func TestFailRetryStreamDraws(t *testing.T) {
	p := analyticalProblem()
	tasks := [][]float64{{0}}
	eng, err := NewEngine(p, tasks, Options{EpsTot: 4, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := eng.Suggest(0)
	if err != nil {
		t.Fatal(err)
	}
	// White box: replay the job's retry stream independently.
	j := eng.byID[sg.ID]
	rng := rand.New(rand.NewSource(j.retrySeed))
	draw := func() []float64 {
		pts, err := sample.FeasibleUniform(p.Tuning, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	want1, want2 := draw(), draw()

	boom := errors.New("node died")
	r1, err := eng.Fail(sg.ID, boom)
	if err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	if math.Float64bits(r1.X[0]) != math.Float64bits(want1[0]) {
		t.Errorf("attempt 1 substituted %v, want retry draw 1 = %v", r1.X[0], want1[0])
	}
	r2, err := eng.Fail(sg.ID, boom)
	if err != nil {
		t.Fatalf("attempt 2: %v", err)
	}
	if math.Float64bits(r2.X[0]) != math.Float64bits(want2[0]) {
		t.Errorf("attempt 2 substituted %v, want retry draw 2 = %v", r2.X[0], want2[0])
	}
	_, err = eng.Fail(sg.ID, boom)
	if !errors.Is(err, ErrTerminalFailure) {
		t.Fatalf("attempt 3: %v, want ErrTerminalFailure", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("terminal error does not wrap the last cause: %v", err)
	}
	if math.Float64bits(j.x[0]) != math.Float64bits(want2[0]) {
		t.Errorf("terminal attempt rewrote the dead job's configuration to %v, want draw 2 = %v (no third draw)", j.x[0], want2[0])
	}
	if err := eng.Observe(sg.ID, []float64{1}); !errors.Is(err, ErrUnknownSuggestion) {
		t.Errorf("observe on dead job: %v, want ErrUnknownSuggestion", err)
	}
}
