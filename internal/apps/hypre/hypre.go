// Package hypre simulates the paper's hypre workload (Sections 6.2 and 6.6,
// Table 4): GMRES with a BoomerAMG-style multigrid preconditioner solving
// the Poisson equation on structured 3D grids, with a task t = [n1, n2, n3]
// (grid dimensions) and 12 tuning parameters covering the 3D process grid,
// coarsening aggressiveness, transfer operators, smoother family and weight,
// sweep counts, cycle shape, coarse-grid threshold and GMRES restart.
//
// Substitution note (see DESIGN.md): instead of BoomerAMG on Cori, the
// iteration counts come from *real* geometric multigrid + GMRES solves
// (internal/mg) on a proxy-coarsened grid (each dimension capped, aspect
// ratio preserved); runtime is then modeled from the true per-iteration work
// counted by the solver, scaled to the full grid, plus an α-β halo-exchange
// and allreduce model over the p1×p2×p3 process grid.
package hypre

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mg"
	"repro/internal/space"
)

// App is the hypre simulator.
type App struct {
	Machine machine.Machine
	PMax    int // total MPI processes (paper: 1 or 4 Cori nodes)
	Noise   *machine.Noise
	// ProxyCap bounds the per-dimension proxy grid size used for the real
	// solves (default 20).
	ProxyCap int

	mu    sync.Mutex
	cache map[string]solveStats
}

type solveStats struct {
	iters         int
	converged     bool
	flopsPerPoint float64 // true counted flops per fine-grid point
	levels        int
	sweeps        int
}

// New returns the simulator on nodes Cori-Haswell nodes.
func New(nodes int) *App {
	m := machine.CoriHaswell()
	return &App{
		Machine:  m,
		PMax:     nodes * m.CoresPerNode,
		Noise:    machine.NewNoise(0.05, 0x47c3),
		ProxyCap: 20,
		cache:    make(map[string]solveStats),
	}
}

// Config holds the native tuning parameters.
type Config struct {
	Px, Py     int // process grid (Pz = P/(Px·Py))
	Coarsen    int // 0 standard (ratio 2), 1 aggressive (ratio 4)
	Restrict   mg.Transfer
	Interp     mg.Transfer
	Smoother   mg.Smoother
	Omega      float64
	PreSweeps  int
	PostSweeps int
	Cycle      mg.Cycle
	CoarseSize int
	Restart    int
}

// mgOptions converts a Config into solver options.
func (c Config) mgOptions() mg.Options {
	ratio := 2
	if c.Coarsen == 1 {
		ratio = 4
	}
	return mg.Options{
		Smoother:     c.Smoother,
		Omega:        c.Omega,
		PreSweeps:    c.PreSweeps,
		PostSweeps:   c.PostSweeps,
		Cycle:        c.Cycle,
		CoarsenRatio: ratio,
		Restrict:     c.Restrict,
		Interp:       c.Interp,
		CoarseSize:   c.CoarseSize,
	}
}

// proxyDims shrinks the task grid so the largest dimension is at most
// ProxyCap, preserving aspect ratio.
func (a *App) proxyDims(n1, n2, n3 int) (int, int, int, float64) {
	maxDim := n1
	if n2 > maxDim {
		maxDim = n2
	}
	if n3 > maxDim {
		maxDim = n3
	}
	cap := a.ProxyCap
	if cap < 6 {
		cap = 6
	}
	scale := 1.0
	if maxDim > cap {
		scale = float64(maxDim) / float64(cap)
	}
	shrink := func(n int) int {
		v := int(math.Round(float64(n) / scale))
		if v < 4 {
			v = 4
		}
		return v
	}
	return shrink(n1), shrink(n2), shrink(n3), scale
}

// solve runs (or recalls) the real proxy solve for the given task/config.
func (a *App) solve(n1, n2, n3 int, cfg Config) solveStats {
	p1, p2, p3, scale := a.proxyDims(n1, n2, n3)
	key := fmt.Sprintf("%d,%d,%d|%+v", p1, p2, p3, struct {
		C, R, I, S, Pre, Post, Cy, CS, Rst int
		W                                  float64
	}{cfg.Coarsen, int(cfg.Restrict), int(cfg.Interp), int(cfg.Smoother),
		cfg.PreSweeps, cfg.PostSweeps, int(cfg.Cycle), cfg.CoarseSize, cfg.Restart, cfg.Omega})
	a.mu.Lock()
	if st, ok := a.cache[key]; ok {
		a.mu.Unlock()
		return st
	}
	a.mu.Unlock()

	h, err := mg.NewHierarchy(p1, p2, p3, cfg.mgOptions())
	var st solveStats
	if err != nil {
		st = solveStats{iters: 200, converged: false, flopsPerPoint: 100, levels: 1, sweeps: 2}
	} else {
		b := make([]float64, h.FineN())
		for i := range b {
			b[i] = 1
		}
		_, res, gerr := mg.GMRES(h.Apply, h.Precondition, b, cfg.Restart, 100, 1e-7)
		iters := res.Iterations
		if gerr != nil || iters == 0 {
			iters = 200
		}
		// Multigrid iteration counts grow mildly with grid size; real hypre
		// sees a similar drift. Apply a small log correction for the
		// proxy→full extrapolation.
		iters = int(math.Ceil(float64(iters) * (1 + 0.06*math.Log2(math.Max(scale, 1)))))
		st = solveStats{
			iters:         iters,
			converged:     res.Converged,
			flopsPerPoint: float64(h.Flops) / float64(h.FineN()),
			levels:        h.Levels(),
			sweeps:        cfg.PreSweeps + cfg.PostSweeps,
		}
	}
	a.mu.Lock()
	a.cache[key] = st
	a.mu.Unlock()
	return st
}

// Runtime returns the modeled (noise-free) solve time for task [n1,n2,n3]
// under cfg.
func (a *App) Runtime(n1, n2, n3 int, cfg Config) float64 {
	st := a.solve(n1, n2, n3, cfg)
	p := a.PMax
	px, py := cfg.Px, cfg.Py
	if px < 1 {
		px = 1
	}
	if py < 1 {
		py = 1
	}
	pz := p / (px * py)
	if pz < 1 {
		pz = 1
	}
	pUsed := px * py * pz

	fullN := float64(n1 * n2 * n3)
	totalFlops := st.flopsPerPoint * fullN
	if !st.converged {
		totalFlops *= 1.5 // failure penalty: hit the iteration cap + restarts
	}
	// Stencil sweeps are memory-bound: ~5% of peak flops per core.
	tFlop := totalFlops / (float64(pUsed) * a.Machine.FlopsPerCore * 0.05)

	// Communication: halo exchanges per sweep per level per iteration (6
	// faces), surface-proportional volume, plus 2 allreduces per GMRES
	// iteration.
	surf := 2 * (float64(n1*n2)/float64(px*py) +
		float64(n1*n3)/float64(px*pz) +
		float64(n2*n3)/float64(py*pz))
	sweepsPerCycle := float64(st.sweeps+2) * float64(st.levels)
	if cfg.Cycle == mg.WCycle {
		sweepsPerCycle *= 1.7
	}
	msgs := float64(st.iters) * sweepsPerCycle * 6
	vol := float64(st.iters) * sweepsPerCycle * surf * 8 * 1.5 // levels sum ≈ 1.5× finest
	logP := math.Log2(math.Max(float64(pUsed), 2))
	msgs += 2 * float64(st.iters) * logP
	tComm := a.Machine.TimeComm(msgs, vol)

	// Setup: hierarchy construction ≈ 3 cycles of work.
	tSetup := 3 * st.flopsPerPoint / math.Max(float64(st.iters), 1) * fullN /
		(float64(pUsed) * a.Machine.FlopsPerCore * 0.05)

	return tFlop + tComm + tSetup + 0.02
}

func (a *App) configOf(x []float64) Config {
	return Config{
		Px:         int(x[0]),
		Py:         int(x[1]),
		Coarsen:    int(x[2]),
		Restrict:   mg.Transfer(int(x[3])),
		Interp:     mg.Transfer(int(x[4])),
		Smoother:   mg.Smoother(int(x[5])),
		Omega:      x[6],
		PreSweeps:  int(x[7]),
		PostSweeps: int(x[8]),
		Cycle:      mg.Cycle(int(x[9])),
		CoarseSize: int(x[10]),
		Restart:    int(x[11]),
	}
}

// Problem returns the tuning problem: task = [n1, n2, n3] with
// 10 ≤ n_i ≤ 100 (as in Table 4), 12 tuning parameters, runtime objective.
func (a *App) Problem() *core.Problem {
	tasks := space.MustNew(
		space.NewInteger("n1", 10, 100),
		space.NewInteger("n2", 10, 100),
		space.NewInteger("n3", 10, 100),
	)
	tuning := space.MustNew(
		space.NewLogInteger("px", 1, a.PMax),
		space.NewLogInteger("py", 1, a.PMax),
		space.NewCategorical("coarsen", "standard", "aggressive"),
		space.NewCategorical("restrict", mg.TransferNames...),
		space.NewCategorical("interp", mg.TransferNames...),
		space.NewCategorical("smoother", mg.SmootherNames...),
		space.NewReal("omega", 0.4, 1.9),
		space.NewInteger("presweeps", 0, 3),
		space.NewInteger("postsweeps", 0, 3),
		space.NewCategorical("cycle", mg.CycleNames...),
		space.NewLogInteger("coarsesize", 4, 32),
		space.NewInteger("restart", 10, 50),
	)
	px, py := tuning.IndexOf("px"), tuning.IndexOf("py")
	tuning.AddConstraint("pxpy<=P", func(x []float64) bool {
		return x[px]*x[py] <= float64(a.PMax)
	})
	return &core.Problem{
		Name:    "hypre",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			n1, n2, n3 := int(task[0]), int(task[1]), int(task[2])
			cfg := a.configOf(x)
			t := a.Runtime(n1, n2, n3, cfg)
			key := fmt.Sprintf("hypre|%d,%d,%d|%v", n1, n2, n3, x)
			return []float64{t * a.Noise.Mul(key)}, nil
		},
	}
}
