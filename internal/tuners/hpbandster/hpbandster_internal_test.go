package hpbandster

import (
	"math"

	"math/rand"
	"repro/internal/core"
	"repro/internal/space"
	"testing"
)

func TestScottBandwidths(t *testing.T) {
	pts := [][]float64{{0.1, 0.5}, {0.2, 0.5}, {0.3, 0.5}, {0.4, 0.5}}
	bw := scottBandwidths(pts, 2)
	if bw[0] <= 0 || bw[1] <= 0 {
		t.Fatalf("bandwidths %v", bw)
	}
	// Dimension 1 is constant: bandwidth must hit the floor, and be smaller
	// than dimension 0's.
	if bw[1] != 1e-3 {
		t.Fatalf("constant dimension bandwidth %v, want floor 1e-3", bw[1])
	}
	if bw[0] <= bw[1] {
		t.Fatalf("spread dimension bandwidth %v not above floor %v", bw[0], bw[1])
	}
}

func TestLogKDEPeaksAtData(t *testing.T) {
	pts := [][]float64{{0.5}}
	bw := []float64{0.1}
	at := logKDE([]float64{0.5}, pts, bw)
	off := logKDE([]float64{0.9}, pts, bw)
	if at <= off {
		t.Fatalf("KDE not peaked at data: %v vs %v", at, off)
	}
	if math.IsInf(logKDE([]float64{0.5}, nil, bw), -1) == false {
		t.Fatalf("empty KDE should be -inf")
	}
}

func TestLogAdd(t *testing.T) {
	// log(e^0 + e^0) = log 2.
	if got := logAdd(0, 0); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("logAdd(0,0) = %v", got)
	}
	if logAdd(math.Inf(-1), 3) != 3 || logAdd(3, math.Inf(-1)) != 3 {
		t.Fatalf("logAdd with -inf broken")
	}
	// Huge difference: the small term vanishes.
	if got := logAdd(1000, -1000); got != 1000 {
		t.Fatalf("logAdd(1000,-1000) = %v", got)
	}
}

func TestProposeTPESamplesNearGoodPoints(t *testing.T) {
	// Good points cluster near 0.2; bad near 0.8. TPE proposals must land
	// closer to the good cluster on average.
	rng := rand.New(rand.NewSource(1))
	var observations []obs
	for i := 0; i < 10; i++ {
		observations = append(observations, obs{u: []float64{0.2 + 0.02*float64(i%3)}, y: float64(i)})
	}
	for i := 0; i < 20; i++ {
		observations = append(observations, obs{u: []float64{0.8 + 0.01*float64(i%5)}, y: 100 + float64(i)})
	}
	p := probProblem()
	sum := 0.0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		nat := proposeTPE(p, observations, 1, rng)
		if nat == nil {
			t.Fatalf("trial %d: no proposal", trial)
		}
		sum += nat[0]
	}
	if mean := sum / trials; mean > 0.5 {
		t.Fatalf("TPE proposals centered at %v, want near the good cluster (0.2)", mean)
	}
}

func TestTunerName(t *testing.T) {
	if (Tuner{}).Name() != "hpbandster" {
		t.Fatalf("name = %s", (Tuner{}).Name())
	}
}

// probProblem is a minimal 1-D problem used by internal tests.
func probProblem() *core.Problem {
	return &core.Problem{
		Name:    "internal",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{x[0]}, nil
		},
	}
}

func TestTuneEndToEndInPackage(t *testing.T) {
	p := &core.Problem{
		Name:    "hb",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d0, d1 := x[0]-0.7, x[1]-0.3
			return []float64{d0*d0 + d1*d1}, nil
		},
	}
	tr, err := (Tuner{}).Tune(p, []float64{0}, 50, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.X) != 50 {
		t.Fatalf("evals = %d", len(tr.X))
	}
	_, y := tr.Best()
	if y[0] > 0.02 {
		t.Fatalf("TPE best %v, want near 0", y[0])
	}
}
