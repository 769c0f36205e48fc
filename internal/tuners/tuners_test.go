package tuners_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/tuners"
	"repro/internal/tuners/hpbandster"
	"repro/internal/tuners/opentuner"
	"repro/internal/tuners/singletask"
	"repro/internal/tuners/surf"
)

// quadProblem has a smooth quadratic objective with minimum 0 at
// x = (0.3, 0.7), plus the task parameter shifting the minimum value.
func quadProblem() *core.Problem {
	return &core.Problem{
		Name:    "quad",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d0 := x[0] - 0.3
			d1 := x[1] - 0.7
			return []float64{task[0] + 10*(d0*d0+d1*d1)}, nil
		},
	}
}

// ridgeProblem is multimodal with a narrow global valley — harder for pure
// random search.
func ridgeProblem() *core.Problem {
	return &core.Problem{
		Name:    "ridge",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			v := math.Sin(6*math.Pi*x[0])*math.Cos(4*math.Pi*x[1]) +
				5*math.Abs(x[0]-0.5) + 2*(x[1]-0.25)*(x[1]-0.25)
			return []float64{v}, nil
		},
	}
}

func allTuners() []tuners.Tuner {
	return []tuners.Tuner{
		tuners.Random{},
		tuners.Grid{},
		opentuner.Tuner{},
		hpbandster.Tuner{},
		surf.Tuner{},
		singletask.Tuner{},
	}
}

func TestAllTunersRespectBudgetAndBounds(t *testing.T) {
	p := quadProblem()
	for _, tn := range allTuners() {
		tr, err := tn.Tune(p, []float64{0.5}, 12, 1)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		if len(tr.X) > 12 || len(tr.X) == 0 {
			t.Fatalf("%s: %d evaluations (budget 12)", tn.Name(), len(tr.X))
		}
		if len(tr.X) != len(tr.Y) {
			t.Fatalf("%s: X/Y length mismatch", tn.Name())
		}
		for _, x := range tr.X {
			if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
				t.Fatalf("%s: out-of-bounds config %v", tn.Name(), x)
			}
		}
		bx, by := tr.Best()
		if by[0] != tr.Y[tr.BestIdx][0] || bx == nil {
			t.Fatalf("%s: inconsistent best", tn.Name())
		}
	}
}

func TestModelBasedTunersBeatBudgetedRandom(t *testing.T) {
	// On the smooth quadratic with a decent budget, OpenTuner, HpBandSter
	// and single-task GPTune should all find a much better optimum than the
	// worst random draw — sanity that they actually exploit structure.
	p := quadProblem()
	const budget = 40
	for _, tn := range []tuners.Tuner{opentuner.Tuner{}, hpbandster.Tuner{}, surf.Tuner{}, singletask.Tuner{}} {
		tr, err := tn.Tune(p, []float64{0}, budget, 7)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		_, by := tr.Best()
		if by[0] > 0.3 {
			t.Errorf("%s: best %v after %d evals on a smooth quadratic", tn.Name(), by[0], budget)
		}
	}
}

func TestTunersRespectConstraints(t *testing.T) {
	p := quadProblem()
	x0, x1 := p.Tuning.IndexOf("x0"), p.Tuning.IndexOf("x1")
	p.Tuning.AddConstraint("x1>=x0", func(x []float64) bool { return x[x1] >= x[x0] })
	for _, tn := range allTuners() {
		tr, err := tn.Tune(p, []float64{0}, 10, 2)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		for _, x := range tr.X {
			if x[1] < x[0] {
				t.Fatalf("%s: constraint violated at %v", tn.Name(), x)
			}
		}
	}
}

func TestTunersSurviveFailingEvaluations(t *testing.T) {
	p := ridgeProblem()
	inner := p.Objective
	calls := 0
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		if calls%4 == 0 {
			return nil, errors.New("injected crash")
		}
		return inner(task, x)
	}
	for _, tn := range []tuners.Tuner{tuners.Random{}, opentuner.Tuner{}, hpbandster.Tuner{}, surf.Tuner{}} {
		calls = 0
		tr, err := tn.Tune(p, []float64{0}, 10, 3)
		if err != nil {
			t.Fatalf("%s: did not survive failures: %v", tn.Name(), err)
		}
		if len(tr.X) != 10 {
			t.Fatalf("%s: got %d evals", tn.Name(), len(tr.X))
		}
	}
}

// TestTunersGiveUpOnBrokenObjective: an application that fails every
// evaluation ends the run after three attempts with the cause — core.Engine's
// rule — instead of spinning forever. Each baseline used to carry its own
// `if err != nil { continue }` loop with no attempt count, so this hung.
func TestTunersGiveUpOnBrokenObjective(t *testing.T) {
	cause := errors.New("application is broken")
	for _, tn := range []tuners.Tuner{tuners.Random{}, tuners.Grid{}, opentuner.Tuner{}, hpbandster.Tuner{}, surf.Tuner{}} {
		var calls atomic.Int64
		p := quadProblem()
		p.Objective = func(task, x []float64) ([]float64, error) {
			calls.Add(1)
			return nil, cause
		}
		done := make(chan error, 1)
		go func() {
			_, err := tn.Tune(p, []float64{0}, 5, 1)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, cause) || !errors.Is(err, core.ErrTerminalFailure) {
				t.Errorf("%s: error %v, want core.ErrTerminalFailure wrapping the cause", tn.Name(), err)
			}
			if n := calls.Load(); n != 3 {
				t.Errorf("%s: gave up after %d evaluations, want 3", tn.Name(), n)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: still evaluating a broken objective after 2 s (%d calls)", tn.Name(), calls.Load())
		}
	}
}

func TestGridCoversCorners(t *testing.T) {
	p := quadProblem()
	tr, err := tuners.Grid{}.Tune(p, []float64{0}, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 9 points in 2-D → 3 levels/dim; corners (0,0) and (1,1) included.
	found00, found11 := false, false
	for _, x := range tr.X {
		if x[0] == 0 && x[1] == 0 {
			found00 = true
		}
		if x[0] == 1 && x[1] == 1 {
			found11 = true
		}
	}
	if !found00 || !found11 {
		t.Fatalf("grid missing corners: %v", tr.X)
	}
}

func TestOpenTunerDeterministicPerSeed(t *testing.T) {
	p := ridgeProblem()
	a, err := opentuner.Tuner{}.Tune(p, []float64{0}, 15, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opentuner.Tuner{}.Tune(p, []float64{0}, 15, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		for d := range a.X[i] {
			if a.X[i][d] != b.X[i][d] {
				t.Fatalf("same seed diverged at sample %d", i)
			}
		}
	}
}

func TestHpBandSterUsesModelAfterWarmup(t *testing.T) {
	// After the warm-up, TPE proposals (two in three) should concentrate:
	// the mean distance of late samples to the optimum should be smaller
	// than that of early (random) samples.
	p := quadProblem()
	tr, err := hpbandster.Tuner{}.Tune(p, []float64{0}, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	distTo := func(x []float64) float64 {
		return math.Hypot(x[0]-0.3, x[1]-0.7)
	}
	early, late := 0.0, 0.0
	for i, x := range tr.X {
		if i < 10 {
			early += distTo(x)
		} else if i >= 30 {
			late += distTo(x)
		}
	}
	if late/10 >= early/10 {
		t.Fatalf("TPE not concentrating: early mean dist %v, late %v", early/10, late/10)
	}
}

// TestGoldenTrajectories pins every baseline's full trajectory on a
// never-failing objective — unconstrained and constrained, long enough to
// pass each tuner's warm-up and OpenTuner's credit window — at
// math.Float64bits. Recorded before the baselines' private evaluate/record
// loops were replaced by tuners.Loop and their never-set fields by
// constants: neither may move a configuration, an output or an RNG draw.
// Re-recorded when the stochastic tuners' streams moved to rng.New(seed,
// tag) (grid draws nothing and kept its hashes).
func TestGoldenTrajectories(t *testing.T) {
	constrained := quadProblem()
	x0, x1 := constrained.Tuning.IndexOf("x0"), constrained.Tuning.IndexOf("x1")
	constrained.Tuning.AddConstraint("x1>=x0", func(x []float64) bool { return x[x1] >= x[x0] })
	problems := []*core.Problem{ridgeProblem(), constrained}
	want := map[string][2]uint64{
		"random":     {0xa5d6146187bc3483, 0x7c6246274007817f},
		"grid":       {0xb5270cde250c0a9e, 0x50dbc9321522fe5d},
		"opentuner":  {0xbda566d754963db0, 0x4bf8a595547c08d9},
		"hpbandster": {0x6663aa8f48cd9353, 0x87b5229668d2c0e4},
		"surf":       {0x30a1de6ce5ddd453, 0xbce2928beb1a37b0},
	}
	for _, tn := range []tuners.Tuner{tuners.Random{}, tuners.Grid{}, opentuner.Tuner{}, hpbandster.Tuner{}, surf.Tuner{}} {
		for i, p := range problems {
			tr, err := tn.Tune(p, []float64{0.25}, 70, 11)
			if err != nil {
				t.Fatalf("%s on %s: %v", tn.Name(), p.Name, err)
			}
			h := fnv.New64a()
			fold := func(vals ...float64) {
				var b [8]byte
				for _, v := range vals {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			for j := range tr.X {
				fold(tr.X[j]...)
				fold(tr.Y[j]...)
			}
			fold(float64(len(tr.X)), float64(tr.BestIdx))
			if h.Sum64() != want[tn.Name()][i] {
				t.Errorf("%s on %s: %d evaluations, trajectory hash %#x, want %#x", tn.Name(), p.Name, len(tr.X), h.Sum64(), want[tn.Name()][i])
			}
		}
	}
}
