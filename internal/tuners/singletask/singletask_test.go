package singletask

import (
	"testing"

	"repro/internal/core"
	"repro/internal/space"
)

func TestTuneRunsMLAOnOneTask(t *testing.T) {
	p := &core.Problem{
		Name:    "st",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d := x[0] - 0.25
			return []float64{d * d}, nil
		},
	}
	tn := Tuner{}
	if tn.Name() != "gptune-singletask" {
		t.Fatalf("name = %s", tn.Name())
	}
	tr, err := tn.Tune(p, []float64{0.5}, 14, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.X) != 14 {
		t.Fatalf("evals = %d", len(tr.X))
	}
	x, y := tr.Best()
	if y[0] > 0.01 {
		t.Fatalf("best y = %v at x = %v", y[0], x[0])
	}
	if tr.Task[0] != 0.5 {
		t.Fatalf("task not preserved: %v", tr.Task)
	}
}

func TestTuneRejectsInvalidProblem(t *testing.T) {
	if _, err := (Tuner{}).Tune(&core.Problem{}, []float64{0}, 4, 1); err == nil {
		t.Fatalf("invalid problem accepted")
	}
}
