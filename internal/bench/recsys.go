package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/space"
)

// The "recsys" scenario tunes the training hyperparameters of a
// matrix-factorization recommender (the gorse shape: algorithm choice,
// factor count, learning rate, regularization, epochs, negative sampling,
// dropout, batch size) for a task describing the dataset (user count and
// rating-matrix sparsity). The validation loss is a planted-optimum
// construction: a task-dependent floor plus non-negative penalty terms that
// all vanish at one grid point — oscillation-modulated quadratic bowls in
// normalized coordinates (local minima, like real LR curves), a correlated
// lr/reg ridge, conditional structure (negative sampling only matters for
// the BPR algorithm), and categorical offsets. The planted location moves
// with the task (bigger datasets want more factors, sparser ones more
// regularization), so multitask learning has real cross-task structure to
// share, and the scenario has an exact analytic optimum.

func recsysTaskCoords(task []float64) (uLog, s01 float64) {
	uLog = math.Log(task[0]/1e3) / math.Log(1e6/1e3)
	s01 = (task[1] - 0.9) / (0.999 - 0.9)
	return uLog, s01
}

// recsysFloor is the task-dependent loss floor — the scenario's exact
// global minimum.
func recsysFloor(task []float64) float64 {
	uLog, s01 := recsysTaskCoords(task)
	return 0.52 + 0.18*s01 - 0.06*uLog
}

// recsysStar returns the planted optimum in normalized coordinates, snapped
// to the space's integer/categorical grid so it is exactly attainable.
func recsysStar(tun *space.Space, task []float64) []float64 {
	uLog, s01 := recsysTaskCoords(task)
	raw := []float64{
		0.5 / 3,          // algo: als
		0.35 + 0.45*uLog, // factors: more users, more factors
		0.45,             // lr
		0.3 + 0.2*s01,    // reg: sparser data, more regularization
		0.6,              // epochs
		0.5,              // neg-ratio (only penalized under bpr)
		0.3,              // dropout: native 0.15
		0.5,              // batch: "256"
	}
	return tun.Normalize(tun.Denormalize(raw))
}

func recsysLoss(tun *space.Space, task, x []float64) float64 {
	_, s01 := recsysTaskCoords(task)
	ustar := recsysStar(tun, task)
	u := tun.Normalize(x)
	d := make([]float64, len(u))
	for i := range u {
		d[i] = u[i] - ustar[i]
	}
	// Every term below is >= 0 and exactly 0 at the planted point: the
	// oscillation factors stay in [0.2, 2.2].
	p := [...]float64{0, 0.035 + 0.01*s01, 0.02}[int(x[0])] // algo offset
	p += 0.25 * d[1] * d[1] * (1.2 + math.Cos(9*d[1]))      // factors
	p += 0.3 * d[2] * d[2] * (1.2 + math.Cos(7*d[2]+1))     // lr
	p += 0.2 * d[3] * d[3] * (1.2 + math.Cos(8*d[3]+2))     // reg
	p += 0.1 * d[4] * d[4] * (1.2 + math.Cos(5*d[4]))       // epochs
	p += 0.12 * d[6] * d[6]                                 // dropout
	if int(x[0]) == 1 {                                     // bpr: neg sampling active
		dn := u[5] - 0.5
		p += 0.08 * dn * dn
	}
	p += [...]float64{0.008, 0, 0.012}[int(x[7])] // batch offset
	cr := d[2] + d[3]                             // correlated lr/reg ridge
	p += 0.1 * cr * cr
	return recsysFloor(task) + p
}

func recsysProblem() *core.Problem {
	tasks := space.MustNew(
		space.NewLogReal("users", 1e3, 1e6),
		space.NewReal("sparsity", 0.9, 0.999),
	)
	tuning := space.MustNew(
		space.NewCategorical("algo", "als", "bpr", "svdpp"),
		space.NewLogInteger("factors", 4, 512),
		space.NewLogReal("lr", 1e-4, 0.5),
		space.NewLogReal("reg", 1e-6, 0.1),
		space.NewInteger("epochs", 5, 200),
		space.NewInteger("neg-ratio", 1, 20),
		space.NewReal("dropout", 0, 0.5),
		space.NewCategorical("batch", "64", "256", "1024"),
	)
	return &core.Problem{
		Name:    "recsys",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("loss"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{recsysLoss(tuning, task, x)}, nil
		},
	}
}

func init() {
	Register(Scenario{
		Name:        "recsys",
		Aliases:     []string{"recommender"},
		Description: "matrix-factorization recommender hyperparameters (algo, factors, lr, reg, epochs, ...) with a task-dependent planted optimum",
		New: func(p Params) (*core.Problem, error) {
			return recsysProblem(), nil
		},
		Optimum: func(task []float64) (float64, bool) {
			return recsysFloor(task), true
		},
	})
}
