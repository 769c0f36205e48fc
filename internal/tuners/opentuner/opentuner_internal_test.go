package opentuner

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/space"
)

func seededDB(vals ...float64) *database {
	db := &database{}
	for i, v := range vals {
		db.add(result{u: []float64{float64(i) / 10, 0.5}, y: v})
	}
	return db
}

func TestDatabaseTracksBest(t *testing.T) {
	db := seededDB(5, 3, 4, 1, 2)
	if db.best().y != 1 {
		t.Fatalf("best = %v", db.best().y)
	}
	if !db.add(result{u: []float64{0.9, 0.9}, y: 0.5}) {
		t.Fatalf("improvement not reported")
	}
	if db.add(result{u: []float64{0.8, 0.8}, y: 9}) {
		t.Fatalf("non-improvement reported as improvement")
	}
}

func TestTopKSelectsSmallest(t *testing.T) {
	db := seededDB(5, 3, 4, 1, 2)
	top := db.topK(2)
	if len(top) != 2 {
		t.Fatalf("topK returned %d", len(top))
	}
	if top[0].y != 1 || top[1].y != 2 {
		t.Fatalf("topK = %v, %v", top[0].y, top[1].y)
	}
	// k larger than the database returns everything.
	if got := db.topK(100); len(got) != 5 {
		t.Fatalf("topK(100) = %d", len(got))
	}
}

func TestTechniquesProposeInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := seededDB(5, 3, 4, 1, 2)
	techs := []technique{
		uniformRandom{},
		greedyMutationNormal{sigma: 0.5},
		greedyMutationUniform{},
		differentialEvolution{f: 0.9, cr: 0.9},
		simplexReflection{},
		annealedWalk{},
	}
	for _, tech := range techs {
		for trial := 0; trial < 100; trial++ {
			u := tech.propose(db, 2, rng)
			if len(u) != 2 {
				t.Fatalf("%T: dim %d", tech, len(u))
			}
			for _, v := range u {
				if v < 0 || v > 1 {
					t.Fatalf("%T proposed out-of-box %v", tech, u)
				}
			}
		}
	}
}

func TestGreedyMutationStartsFromBest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := seededDB(5, 1)
	// Mutation changes exactly one coordinate of the best config.
	u := greedyMutationUniform{}.propose(db, 2, rng)
	diff := 0
	for d := range u {
		if u[d] != db.best().u[d] {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("uniform mutation changed %d coordinates", diff)
	}
}

func TestDEFallsBackWhenPoolSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := seededDB(1) // fewer than 3 results
	u := differentialEvolution{f: 0.7, cr: 0.5}.propose(db, 3, rng)
	if len(u) != 3 {
		t.Fatalf("fallback proposal wrong: %v", u)
	}
}

func TestTunerName(t *testing.T) {
	if (Tuner{}).Name() != "opentuner" {
		t.Fatalf("name = %s", (Tuner{}).Name())
	}
}

func TestTuneEndToEndInPackage(t *testing.T) {
	p := &core.Problem{
		Name:    "ot",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d0, d1 := x[0]-0.3, x[1]-0.7
			return []float64{d0*d0 + d1*d1}, nil
		},
	}
	tr, err := (Tuner{}).Tune(p, []float64{0}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.X) != 60 {
		t.Fatalf("evals = %d", len(tr.X))
	}
	_, y := tr.Best()
	if y[0] > 0.01 {
		t.Fatalf("bandit ensemble best %v, want near 0", y[0])
	}
	// The bandit must have spread uses across techniques yet still
	// converged — indirectly verified by the improvement sequence: the
	// best-so-far trace must improve after the first third.
	trace := tr.BestTrace()
	if trace[len(trace)-1] >= trace[len(trace)/3] {
		t.Fatalf("no improvement after warmup: %v vs %v", trace[len(trace)-1], trace[len(trace)/3])
	}
}

func TestTuneInfeasibleRepair(t *testing.T) {
	p := &core.Problem{
		Name:    "otc",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{x[0] + x[1]}, nil
		},
	}
	x0, x1 := p.Tuning.IndexOf("x0"), p.Tuning.IndexOf("x1")
	p.Tuning.AddConstraint("sum<=1", func(x []float64) bool { return x[x0]+x[x1] <= 1 })
	tr, err := (Tuner{}).Tune(p, []float64{0}, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range tr.X {
		if x[0]+x[1] > 1 {
			t.Fatalf("infeasible evaluation %v", x)
		}
	}
}
