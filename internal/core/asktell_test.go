package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sample"
)

// driveEngine pumps an engine to completion ask/tell style from one
// goroutine, evaluating the analytical objective caller-side.
func driveEngine(t *testing.T, eng *Engine, tasks [][]float64) {
	t.Helper()
	for {
		sg, err := eng.Suggest(-1)
		if errors.Is(err, ErrDone) {
			return
		}
		if err != nil {
			t.Fatalf("suggest: %v", err)
		}
		y := paperObjective(tasks[sg.Task][0], sg.X[0])
		if err := eng.Observe(sg.ID, []float64{y}); err != nil {
			t.Fatalf("observe: %v", err)
		}
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
	// White box: replay the retry stream of task 0's first initial job
	// independently.
	j := eng.pending(sg.ID)
	if sg.ID != 0 || sg.Task != 0 || sg.Phase != "init" {
		t.Fatalf("first suggestion %+v is not task 0's first initial job", sg)
	}
	rng := rng.New(9, rng.Retry, 0, 0, 0)
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
